// Command bench-pair measures a change against a parent commit with the
// repository's benchmark, the way a performance claim has to be measured on a
// small noisy host: the parent is unpacked into a temporary directory, the
// benchmark runs on it and on the working tree in alternating pairs (which
// side goes first switches every pair), and every end-to-end metric of
// BENCHMARK.json is printed per pair, with each side's median and quartiles
// and the pairs won, tied and lost.
//
//	make bench-pair PARENT=HEAD~1 WORKLOAD=tatp-central PAIRS=10 SEED=42
//
// A gain is claimed only when the working tree wins at least nine tenths of
// the pairs and the medians differ by more than the parent's own
// interquartile range; no regression means the median is no worse than the
// parent's by more than the metric's bound. Each run's steal share (CPU time
// the hypervisor gave to other guests, from /proc/stat) is printed per pair:
// the untraced benchmark does not report it. The tables are Markdown.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// sample is what one benchmark run reports on its last line of output.
type sample struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		parent   = flag.String("parent", "", "git ref of the parent commit (required)")
		workload = flag.String("workload", "", "benchmark workload to run (required)")
		pairs    = flag.Int("pairs", 10, "number of parent/working-tree pairs")
		seed     = flag.Int64("seed", 42, "workload seed passed to the benchmark")
	)
	flag.Parse()
	if *parent == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*parent, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "bench-pair:", err)
		os.Exit(1)
	}
}

func run(parent, workload string, pairs int, seed int64) error {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("not inside a git checkout: %w", err)
	}
	root := strings.TrimSpace(string(top))
	decls, err := endToEndMetrics(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	parentDir, err := os.MkdirTemp("", "bench-pair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parentDir)
	if err := unpack(root, parent, parentDir); err != nil {
		return err
	}

	sides := [2]struct {
		name, dir string
		runs      []sample
		steal     []float64 // per run; -1 where the kernel reports no steal
	}{{name: "parent", dir: parentDir}, {name: "tree", dir: root}}
	for p := 0; p < pairs; p++ {
		for k := 0; k < 2; k++ {
			s := &sides[(p+k)%2] // even pairs run the parent first, odd pairs the tree
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", p+1, pairs, s.name)
			before, _ := os.ReadFile("/proc/stat")
			r, err := benchmark(s.dir, workload, seed)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, s.name, err)
			}
			s.runs = append(s.runs, r)
			after, _ := os.ReadFile("/proc/stat")
			s.steal = append(s.steal, stealShare(string(before), string(after)))
		}
	}

	fmt.Printf("## %s, seed %d, %d pairs, parent %s\n", workload, seed, pairs, parent)
	for _, d := range decls {
		var a, b []float64 // parent, tree
		wins, ties := 0, 0
		fmt.Printf("\n### %s (%s, %s is better, bound %.0f%%)\n\n| pair | first | parent | tree | tree/parent |\n|---|---|---|---|---|\n", d.Name, d.Unit, d.Better, d.Bound*100)
		for p := 0; p < pairs; p++ {
			x, y := sides[0].runs[p].Metrics[d.Name].Value, sides[1].runs[p].Metrics[d.Name].Value
			a, b = append(a, x), append(b, y)
			switch {
			case x == y:
				ties++
			case (y > x) == (d.Better == "higher"):
				wins++
			}
			fmt.Printf("| %d | %s | %.9g | %.9g | %.3f |\n", p+1, sides[p%2].name, x, y, y/x)
		}
		qa, qb := quartiles(a), quartiles(b)
		fmt.Printf("\nparent: median %.6g, quartiles %.6g .. %.6g (IQR %.3g)\n", qa[1], qa[0], qa[2], qa[2]-qa[0])
		fmt.Printf("tree:   median %.6g, quartiles %.6g .. %.6g (IQR %.3g)\n", qb[1], qb[0], qb[2], qb[2]-qb[0])
		worse := (qa[1] - qb[1]) / qa[1] // share of the parent's median the tree lost
		if d.Better == "lower" {
			worse = -worse
		}
		fmt.Printf("tree wins %d, ties %d, loses %d of %d; median %+.1f%% (%s is better); gain rule (wins >= 9/10 of pairs, median gap > parent IQR): %s; within the %.0f%% bound: %v\n",
			wins, ties, pairs-wins-ties, pairs, (qb[1]/qa[1]-1)*100, d.Better,
			met(wins*10 >= pairs*9 && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]), d.Bound*100, worse <= d.Bound)
	}
	fmt.Printf("\n### steal share (CPU time given to other guests during the run)\n\n| pair | parent | tree |\n|---|---|---|\n")
	largest := -1.0
	for p := 0; p < pairs; p++ {
		x, y := sides[0].steal[p], sides[1].steal[p]
		largest = max(largest, x, y)
		fmt.Printf("| %d | %s | %s |\n", p+1, percent(x), percent(y))
	}
	fmt.Printf("\nlargest steal share: %s\n\n", percent(largest))
	for _, s := range sides {
		var failed, attempted int64
		correct := true
		for _, r := range s.runs {
			failed, attempted, correct = failed+r.Failed, attempted+r.Attempted, correct && r.Correct
		}
		fmt.Printf("%s: %d of %d operations failed; every output check passed: %v\n", s.name, failed, attempted, correct)
	}
	return nil
}

func met(ok bool) string {
	if ok {
		return "met"
	}
	return "not met"
}

func endToEndMetrics(path string) ([]metricDecl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// unpack extracts the committed files of ref into dir (git archive | tar -x),
// which leaves the repository's own metadata alone.
func unpack(root, ref, dir string) error {
	archive := exec.Command("git", "-C", root, "archive", "--format=tar", ref)
	extract := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	extract.Stdin = pipe
	archive.Stderr, extract.Stderr = os.Stderr, os.Stderr
	if err := extract.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	if err := extract.Wait(); err != nil {
		return fmt.Errorf("unpacking %s: %w", ref, err)
	}
	return nil
}

// benchmark runs the repo benchmark in dir and decodes the last line it prints.
func benchmark(dir, workload string, seed int64) (sample, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload, "--seed", fmt.Sprint(seed), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var s sample
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return sample{}, fmt.Errorf("last output line is not the result record: %w", err)
	}
	return s, nil
}

// cpuTicks returns the steal and total tick counts of the aggregate "cpu"
// line of a /proc/stat document, or zeros when the line is missing, malformed
// or has no steal column.
func cpuTicks(stat string) (steal, total uint64) {
	fields := strings.Fields(strings.SplitN(stat, "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for _, f := range fields[1:9] { // user … softirq steal; guest is in user
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		steal, total = v, total+v
	}
	return steal, total
}

// stealShare is the share of the CPU ticks between two /proc/stat documents
// that went to steal, or -1 when either has no steal column or no tick passed.
func stealShare(before, after string) float64 {
	s0, t0 := cpuTicks(before)
	s1, t1 := cpuTicks(after)
	if t0 == 0 || t1 <= t0 {
		return -1
	}
	return float64(s1-s0) / float64(t1-t0)
}

// percent formats a share as a percentage, or "n/a" for a negative one.
func percent(x float64) string {
	if x < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// quartiles returns the lower quartile, median and upper quartile of xs, by
// linear interpolation between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}
