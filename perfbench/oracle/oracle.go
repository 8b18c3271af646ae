// Package oracle recomputes what the miner reports straight from the
// definitions, with no code in common with the program: a brute-force
// Definition-1 counter over the raw symbol slice, a direct recount of a
// multi-symbol pattern's support, and an equal-width discretizer. The
// benchmark checks every workload's output against it, never against a
// stored copy of an earlier output.
package oracle

import (
	"fmt"
	"sort"
)

// Periodicity is one symbol periodicity of Definition 1: Symbol recurs
// every Period positions at offset Position, holding at Matches of the
// Pairs consecutive slot pairs of the projection π_{Period,Position}.
type Periodicity struct {
	Symbol     byte
	Period     int
	Position   int
	Matches    int
	Pairs      int
	Confidence float64
}

// Periodicities returns every periodicity with period in [lo, hi],
// confidence ≥ psi and at least minPairs slot pairs (at least one), in the
// canonical order (period, position, symbol). One pass per period counts,
// for every (position, symbol), the slots i with t_i = t_{i+p}.
func Periodicities(sym []byte, lo, hi int, psi float64, minPairs int) []Periodicity {
	n := len(sym)
	if minPairs < 1 {
		minPairs = 1
	}
	alpha := Alphabet(sym)
	var index [256]int
	for k, s := range alpha {
		index[s] = k
	}
	sigma := len(alpha)
	var out []Periodicity
	var counts []int32
	for p := lo; p <= hi && p < n; p++ {
		if cap(counts) < p*sigma {
			counts = make([]int32, p*sigma)
		}
		counts = counts[:p*sigma]
		clear(counts)
		l := 0
		for i := 0; i+p < n; i++ {
			if sym[i] == sym[i+p] {
				counts[l*sigma+index[sym[i]]]++
			}
			if l++; l == p {
				l = 0
			}
		}
		for l := 0; l < p; l++ {
			pairs := (n-l+p-1)/p - 1
			if pairs < minPairs {
				continue
			}
			for k := 0; k < sigma; k++ {
				f2 := int(counts[l*sigma+k])
				if f2 == 0 {
					continue
				}
				conf := float64(f2) / float64(pairs)
				if conf >= psi {
					out = append(out, Periodicity{Symbol: alpha[k], Period: p, Position: l,
						Matches: f2, Pairs: pairs, Confidence: conf})
				}
			}
		}
	}
	return out
}

// Alphabet returns the distinct symbols of sym in ascending byte order.
func Alphabet(sym []byte) []byte {
	var seen [256]bool
	for _, s := range sym {
		seen[s] = true
	}
	var out []byte
	for s, ok := range seen {
		if ok {
			out = append(out, byte(s))
		}
	}
	return out
}

// TopByConfidence keeps the limit periodicities of highest confidence,
// breaking ties by the canonical order (period, position, symbol), and
// returns them in canonical order. pers must already be in canonical order.
func TopByConfidence(pers []Periodicity, limit int) []Periodicity {
	if len(pers) <= limit {
		return pers
	}
	idx := make([]int, len(pers))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return pers[idx[a]].Confidence > pers[idx[b]].Confidence
	})
	keep := idx[:limit]
	sort.Ints(keep)
	out := make([]Periodicity, len(keep))
	for i, j := range keep {
		out[i] = pers[j]
	}
	return out
}

// PatternSupport recounts a dense pattern of length p ('*' = don't care):
// the number of occurrence indices m ∈ [0, ⌊n/p⌋) at which every fixed
// symbol c at offset l holds in two consecutive periods, t_{mp+l} =
// t_{(m+1)p+l} = c, and that count as a fraction of ⌊n/p⌋.
func PatternSupport(sym []byte, pattern string) (count int, support float64, err error) {
	p := len(pattern)
	n := len(sym)
	if p == 0 || p > n {
		return 0, 0, fmt.Errorf("oracle: pattern length %d outside [1,%d]", p, n)
	}
	total := n / p
	for m := 0; m < total; m++ {
		holds := true
		for l := 0; l < p && holds; l++ {
			c := pattern[l]
			if c == '*' {
				continue
			}
			i := m*p + l
			holds = i+p < n && sym[i] == c && sym[i+p] == c
		}
		if holds {
			count++
		}
	}
	return count, float64(count) / float64(total), nil
}

// EqualWidth maps each value to one of levels symbols 'a', 'b', …: the
// range [min, max] is cut into levels bins of width (max−min)/levels, and a
// value's level is the number of interior bin edges min + width·j
// (j = 1 … levels−1) that it reaches.
func EqualWidth(values []float64, levels int) ([]byte, error) {
	if len(values) == 0 || levels < 2 || levels > 26 {
		return nil, fmt.Errorf("oracle: %d values, %d levels", len(values), levels)
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = min(lo, v), max(hi, v)
	}
	if hi <= lo {
		return nil, fmt.Errorf("oracle: constant values")
	}
	width := (hi - lo) / float64(levels)
	edges := make([]float64, levels-1)
	for j := range edges {
		edges[j] = lo + width*float64(j+1)
	}
	out := make([]byte, len(values))
	for i, v := range values {
		level := 0
		for _, e := range edges {
			if v >= e {
				level++
			}
		}
		out[i] = byte('a' + level)
	}
	return out, nil
}
