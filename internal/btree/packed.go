package btree

import (
	"encoding/binary"
	"slices"

	"atrapos/internal/schema"
)

// packed is an array of unsigned integers stored at one width of 1, 2, 4 or 8
// bytes, little-endian and back to back; the width is 1 << s bytes, and its
// shift s is kept by the owner beside the array (a leaf's header), so reading
// an entry waits on no byte of the array but the entry's own. A leaf keeps two:
// its keys as offsets from its base, and its row ends (Goldstein, Ramakrishnan
// and Shaft, "Compressing Relations and Indexes", ICDE 1998: frame of
// reference). No operation narrows an array but repack.
type packed []byte

// shiftFor returns the shift of the narrowest width that holds v.
func shiftFor(v uint64) uint8 {
	switch {
	case v < 1<<8:
		return 0
	case v < 1<<16:
		return 1
	case v < 1<<32:
		return 2
	}
	return 3
}

// newPacked returns an empty array with room for n entries at shift s.
func newPacked(s uint8, n int) packed { return make(packed, 0, n<<s) }

// len returns the entry count of p at shift s.
func (p packed) len(s uint8) int { return len(p) >> s }

// at returns entry i of p at shift s.
func (p packed) at(s uint8, i int) uint64 {
	switch s {
	case 0:
		return uint64(p[i])
	case 1:
		return uint64(binary.LittleEndian.Uint16(p[i<<1:]))
	case 2:
		return uint64(binary.LittleEndian.Uint32(p[i<<2:]))
	}
	return binary.LittleEndian.Uint64(p[i<<3:])
}

// set stores v, which the width must hold, as entry i of p at shift s.
func (p packed) set(s uint8, i int, v uint64) {
	switch s {
	case 0:
		p[i] = byte(v)
	case 1:
		binary.LittleEndian.PutUint16(p[i<<1:], uint16(v))
	case 2:
		binary.LittleEndian.PutUint32(p[i<<2:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(p[i<<3:], v)
	}
}

// setOffsets stores each key's offset from base as the entries of p, from the
// first, at shift s; setEnds stores the running sums of lens. They are a bulk
// load's inner loops, so the widths dense keys and leaves of short rows pack
// at (1-byte keys, 2-byte ends) run without a per-entry switch.
func (p packed) setOffsets(s uint8, keys []schema.Key, base schema.Key) {
	if s == 0 {
		p = p[:len(keys)]
		for j, k := range keys {
			p[j] = byte(k - base)
		}
		return
	}
	for j, k := range keys {
		p.set(s, j, uint64(k-base))
	}
}

func (p packed) setEnds(s uint8, lens []uint32) {
	end := uint64(0)
	if s == 1 {
		p = p[:2*len(lens)]
		for j, l := range lens {
			end += uint64(l)
			binary.LittleEndian.PutUint16(p[2*j:], uint16(end))
		}
		return
	}
	for j, l := range lens {
		end += uint64(l)
		p.set(s, j, end)
	}
}

// zeros are the bytes an insert opens its entry with.
var zeros [8]byte

// insert opens entry i holding v, which the width must hold.
func (p packed) insert(s uint8, i int, v uint64) packed {
	p = slices.Insert(p, i<<s, zeros[:1<<s]...)
	p.set(s, i, v)
	return p
}

// delete removes entry i.
func (p packed) delete(s uint8, i int) packed { return slices.Delete(p, i<<s, (i+1)<<s) }

// add adds d, modulo 2^64, to the entries from the i-th on; the width must
// hold the results. It is the inner loop of every insert, delete and
// length-changing update, so each width runs its own.
func (p packed) add(s uint8, i int, d uint64) {
	switch {
	case d == 0:
	case s == 0:
		for j := i; j < len(p); j++ {
			p[j] += byte(d)
		}
	case s == 1:
		for j := i << 1; j+2 <= len(p); j += 2 {
			binary.LittleEndian.PutUint16(p[j:], binary.LittleEndian.Uint16(p[j:])+uint16(d))
		}
	default:
		for n := p.len(s); i < n; i++ {
			p.set(s, i, p.at(s, i)+d)
		}
	}
}

// appendFrom appends entries [lo, hi) of q, at shift qs, plus d (modulo 2^64)
// to p at shift s; the width must hold the results.
func (p packed) appendFrom(s uint8, q packed, qs uint8, lo, hi int, d uint64) packed {
	at := p.len(s)
	p = append(p, make(packed, (hi-lo)<<s)...)
	for i := lo; i < hi; i++ {
		p.set(s, at+i-lo, q.at(qs, i)+d)
	}
	return p
}

// repack returns p's entries plus d (modulo 2^64) at shift to: rewritten in
// place when to is no wider than s, else copied out with room for spare more.
// The results must fit the new width.
func (p packed) repack(s, to uint8, d uint64, spare int) packed {
	n := p.len(s)
	if to > s {
		return newPacked(to, n+spare).appendFrom(to, p, s, 0, n, d)
	}
	// Entry i moves down to i<<to, below every entry after it, so a forward
	// pass reads each before it is overwritten.
	for i := 0; i < n; i++ {
		p.set(to, i, p.at(s, i)+d)
	}
	return p[:n<<to]
}
