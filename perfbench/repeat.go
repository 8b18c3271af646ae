package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns runs one workload k times, each in its own process with seeds
// seed … seed+k−1, and prints each end-to-end metric's median, quartiles,
// range and quartile spread next to the bound BENCHMARK.json gives it.
// This is the evidence behind those bounds.
func repeatRuns(w *workload, seed int64, seconds, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	values := map[string][]float64{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		steal := ""
		for _, l := range lines {
			if rest, ok := bytes.CutPrefix(l, []byte("# host steal ")); ok {
				steal = " steal " + string(bytes.Fields(rest)[0])
			}
		}
		var rep report
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Printf("seed %-4d correct=%v attempted=%d failed=%d%s", s, rep.Correct, rep.Attempted, rep.Failed, steal)
		for _, m := range endToEnd {
			v := rep.Metrics[m.name].Value
			values[m.name] = append(values[m.name], v)
			fmt.Printf(" %s=%.6g", m.name, v)
		}
		fmt.Println()
	}
	fmt.Printf("\n%s, %d runs of %d s\n", w.name, k, seconds)
	fmt.Printf("%-16s %-4s %11s %11s %11s %11s %11s %8s %6s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound")
	for _, m := range endToEnd {
		vs := values[m.name]
		q1, q2, q3 := quartiles(vs)
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = min(lo, v), max(hi, v)
		}
		bound := "?"
		if b, ok := bounds[m.name]; ok {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
		}
		fmt.Printf("%-16s %-4s %11.6g %11.6g %11.6g %11.6g %11.6g %8.4f %6s\n",
			m.name, m.unit, q2, q1, q3, lo, hi, (q3-q1)/q2, bound)
	}
	return nil
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json,
// or an empty map when the file is missing.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
