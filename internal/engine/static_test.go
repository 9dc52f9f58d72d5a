package engine

import (
	"reflect"
	"testing"

	"atrapos/internal/topology"
	"atrapos/internal/workload"
)

// TestDerivePlacementIsAFunctionOfItsInputs pins the static derivation to its
// arguments: repeated calls must return the same placement, whatever order Go
// happens to iterate the class-mix and per-socket maps in.
func TestDerivePlacementIsAFunctionOfItsInputs(t *testing.T) {
	top, err := topology.BuildProfile("chiplet-2s4d")
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[string]*workload.Workload{
		"tatp": workload.MustTATP(workload.TATPOptions{Subscribers: 100_000}),
		"tpcc": workload.MustTPCC(workload.TPCCOptions{Warehouses: 8, CustomersPerDistrict: 30, Items: 1000}),
	}
	for name, wl := range workloads {
		for _, hardwareAware := range []bool{false, true} {
			first := DerivePlacement(wl, top, hardwareAware)
			for i := 1; i < 10; i++ {
				if again := DerivePlacement(wl, top, hardwareAware); !reflect.DeepEqual(first, again) {
					t.Errorf("%s hardwareAware=%v: call %d returned a different placement than call 0", name, hardwareAware, i)
					break
				}
			}
		}
	}
}
