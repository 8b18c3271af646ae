package main

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"periodica"
	"periodica/perfbench/oracle"
)

// checkReference verifies one operation's result against the oracle:
//   - a mine of the same query without its limit clause reports exactly the
//     brute-force periodicity set, each with its Definition-2 pattern;
//   - the result itself holds the oracle's top N by confidence (ties in the
//     canonical order period, position, symbol), or the full set when the
//     query has no limit;
//   - every multi-symbol pattern's support equals its recount;
//   - the period list is derived from what the result holds;
//   - the embedded period is found (synthetic workload);
//   - for the served workload, the result equals the single-process
//     MineQueryContext result on the same series and query.
func checkReference(ctx context.Context, e *env, ref *periodica.Result) error {
	p := e.in.params
	all := oracle.Periodicities(e.in.symbols, p.minPeriod, p.maxPeriod, p.psi, p.minPairs)
	full, want := ref, all
	if p.limit > 0 {
		fq, err := periodica.CompileQuery(p.query(true))
		if err != nil {
			return err
		}
		if full, err = periodica.MineQueryContext(ctx, e.series, fq); err != nil {
			return fmt.Errorf("unlimited mine: %w", err)
		}
		want = oracle.TopByConfidence(all, p.limit)
	}
	if err := samePeriodicities("unlimited mine", full, all); err != nil {
		return err
	}
	if err := samePeriodicities("result", ref, want); err != nil {
		return err
	}
	for _, pt := range ref.Patterns {
		if err := checkPattern(e.in.symbols, p, pt); err != nil {
			return err
		}
	}
	if got, want := ref.Periods, derivedPeriods(ref); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("period list %v, periodicities and patterns give %v", got, want)
	}
	if e.in.embedded > 0 && !slices.Contains(full.Periods, e.in.embedded) {
		return fmt.Errorf("embedded period %d not found in %v", e.in.embedded, full.Periods)
	}
	if e.stack != nil {
		local, err := periodica.MineQueryContext(ctx, e.series, e.query)
		if err != nil {
			return fmt.Errorf("single-process mine: %w", err)
		}
		if !reflect.DeepEqual(local, ref) {
			return fmt.Errorf("served result differs from the single-process MineQueryContext result")
		}
	}
	return nil
}

// samePeriodicities compares a result's periodicities and single-symbol
// patterns, in order, with the oracle's.
func samePeriodicities(what string, res *periodica.Result, want []oracle.Periodicity) error {
	if len(res.Periodicities) != len(want) || len(res.SingleSymbolPatterns) != len(want) {
		return fmt.Errorf("%s: %d periodicities and %d single-symbol patterns, oracle has %d",
			what, len(res.Periodicities), len(res.SingleSymbolPatterns), len(want))
	}
	for i, w := range want {
		got := res.Periodicities[i]
		exp := periodica.Periodicity{Symbol: string(w.Symbol), Period: w.Period, Position: w.Position,
			Matches: w.Matches, Pairs: w.Pairs, Confidence: w.Confidence}
		if got != exp {
			return fmt.Errorf("%s: periodicity %d is %+v, oracle has %+v", what, i, got, exp)
		}
		text := []byte(strings.Repeat("*", w.Period))
		text[w.Position] = w.Symbol
		pt := res.SingleSymbolPatterns[i]
		if pt.Period != w.Period || pt.Text != string(text) || pt.Support != w.Confidence { //opvet:ignore floatcmp both sides are F2/pairs of the same integers; exact equality is the check
			return fmt.Errorf("%s: single-symbol pattern %d is %+v, want %s with support %v",
				what, i, pt, text, w.Confidence)
		}
	}
	return nil
}

// checkPattern validates one multi-symbol pattern and recounts its support.
func checkPattern(sym []byte, p mineParams, pt periodica.Pattern) error {
	fixed := len(pt.Text) - strings.Count(pt.Text, "*")
	if len(pt.Text) != pt.Period || pt.Period > p.maxPatternPeriod || fixed < 2 {
		return fmt.Errorf("malformed pattern %+v", pt)
	}
	_, support, err := oracle.PatternSupport(sym, pt.Text)
	if err != nil {
		return err
	}
	if support != pt.Support || support < p.psi { //opvet:ignore floatcmp both sides are count/⌊n/p⌋ of the same integers; exact equality is the check
		return fmt.Errorf("pattern %s: support %v, recount gives %v", pt.Text, pt.Support, support)
	}
	return nil
}

func derivedPeriods(res *periodica.Result) []int {
	set := map[int]bool{}
	for _, sp := range res.Periodicities {
		set[sp.Period] = true
	}
	for _, pt := range res.Patterns {
		set[pt.Period] = true
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
