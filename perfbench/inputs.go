package main

import (
	"fmt"
	"math"
	"math/rand"
)

// The benchmark makes every input itself from --seed; the program sees only
// the generated symbols or readings. Each workload draws from its own
// math/rand stream seeded with the run's seed, so a seed fixes the input.

const (
	synthLen    = 1 << 20
	synthSigma  = 10
	synthPeriod = 25
	synthNoise  = 0.2

	walmartHours = 15 * 30 * 24 // 15 months of 30-day months, hourly
	serveHours   = 1 << 13
)

// mineParams are the mining clauses of a workload's query. The benchmark
// renders the query string from them and hands the same numbers to the
// oracle, so a misparsed query shows as a mismatch.
type mineParams struct {
	psi              float64
	minPeriod        int
	maxPeriod        int
	minPairs         int
	maxPatternPeriod int
	levels           int // discretization levels; 0 for symbol input
	limit            int // "limit N by conf"; 0 for none
}

var (
	synthParams   = mineParams{psi: 0.6, minPeriod: 2, maxPeriod: 256, minPairs: 3, maxPatternPeriod: 32}
	walmartParams = mineParams{psi: 0.5, minPeriod: 2, maxPeriod: 1000, minPairs: 3, maxPatternPeriod: 168, limit: 100}
	serveParams   = mineParams{psi: 0.5, minPeriod: 2, maxPeriod: 512, minPairs: 3, maxPatternPeriod: 24, levels: 5, limit: 50}
)

// query renders the workload's query; full drops the limit clause.
func (p mineParams) query(full bool) string {
	q := fmt.Sprintf("conf >= %v and pairs >= %d and period in %d..%d and pattern period <= %d",
		p.psi, p.minPairs, p.minPeriod, p.maxPeriod, p.maxPatternPeriod)
	if p.levels > 0 {
		q += fmt.Sprintf(" and levels %d", p.levels)
	}
	if p.limit > 0 && !full {
		q += fmt.Sprintf(" and limit %d by conf", p.limit)
	}
	return q
}

// synthSymbols returns n=2^20 symbols over σ=10 letters: a pattern of
// period 25 with uniformly drawn symbols, repeated, then each position
// replaced with probability 0.2 by a uniformly drawn symbol (replacement
// noise).
func synthSymbols(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	pattern := make([]byte, synthPeriod)
	for i := range pattern {
		pattern[i] = byte('a' + rng.Intn(synthSigma))
	}
	out := make([]byte, synthLen)
	for i := range out {
		out[i] = pattern[i%synthPeriod]
		if rng.Float64() < synthNoise {
			out[i] = byte('a' + rng.Intn(synthSigma))
		}
	}
	return out
}

// dayProfile is the base number of transactions in each hour of a store's
// day: closed overnight, a quiet early-morning hour, busy afternoons.
var dayProfile = [24]float64{
	0, 0, 0, 0, 0, 0,
	85, 155, 310, 470, 610, 730, 810, 795, 755, 725, 745, 800, 775, 615, 425, 255, 115,
	0,
}

// weekFactor scales each day of the week.
var weekFactor = [7]float64{1.0, 0.95, 0.97, 1.03, 1.11, 1.29, 1.19}

// readingCap is the most transactions a store's tills can record in an
// hour. Every seed's busiest hours reach it (each 2^13-hour series exceeds
// it dozens of times), so the equal-width discretization of the served
// workload always bins the range [0, readingCap] on the same edges instead
// of on edges set by the seed's single largest reading.
const readingCap = 1200

// hourlyReadings returns Wal-Mart-style hourly transaction counts: the day
// profile scaled by the weekday, log-normal noise (σ=0.15) on open hours, a
// one-hour daylight-saving shift from day 90 to day 299 of each 360-day
// year, on 3% of days extra traffic (light traffic in hours the store is
// normally closed), and every reading capped at readingCap.
func hourlyReadings(seed int64, hours int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, hours)
	special := false
	for h := range out {
		day, hour := h/24, h%24
		if hour == 0 {
			special = rng.Float64() < 0.03
		}
		shift := 0
		if doy := day % 360; doy >= 90 && doy < 300 {
			shift = 1
		}
		base := dayProfile[(hour+24-shift)%24]
		switch {
		case base > 0:
			out[h] = base * weekFactor[day%7] * math.Exp(0.15*rng.NormFloat64())
			if special {
				out[h] += 120 + 160*rng.Float64()
			}
		case special:
			out[h] = 40 + 80*rng.Float64()
		}
		out[h] = min(out[h], readingCap)
	}
	return out
}

// paperLevels maps hourly counts to the paper's five Wal-Mart levels: a is
// zero transactions, b fewer than 200, then 200-wide bands up to e (600 and
// more).
func paperLevels(values []float64) []byte {
	out := make([]byte, len(values))
	for i, v := range values {
		switch {
		case v <= 0:
			out[i] = 'a'
		case v < 200:
			out[i] = 'b'
		case v < 400:
			out[i] = 'c'
		case v < 600:
			out[i] = 'd'
		default:
			out[i] = 'e'
		}
	}
	return out
}

// symbolLevels turns symbols back into numeric levels (a=0, b=1, …), the
// readings the discretize probe bins on the symbol workloads.
func symbolLevels(sym []byte) []float64 {
	out := make([]float64, len(sym))
	for i, s := range sym {
		out[i] = float64(s - 'a')
	}
	return out
}
