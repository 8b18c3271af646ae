// Command perfbench measures the periodica miner end to end and per layer
// on three workloads, and checks every result against an independent
// brute-force oracle. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload mine-synth-1m --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload serve-dist-2w --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --repeat 10 --workload mine-walmart-top100 --seed 1 --seconds 30
//	bash perfbench/run.sh --probe-host
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per layer with
// --trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"periodica/internal/fft"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	repeat := flag.Int("repeat", 0, "run the workload this many times, seeds seed, seed+1, …, and summarize")
	hostProbe := flag.Bool("probe-host", false, "time a CPU loop and a memory sweep to gauge the host's noise")
	flag.Parse()
	if *hostProbe {
		probeHost()
		return nil
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	if *repeat > 0 {
		return repeatRuns(w, *seed, *seconds, *repeat)
	}

	// Hold fixed what would otherwise change the program between runs: the
	// pinned FFT tuning, and none of the environment overrides.
	for _, k := range []string{fft.TuneFileEnv, "PERIODICA_ENGINE", "PERIODICA_QUERY"} {
		_ = os.Unsetenv(k)
	}
	fft.ResetTuned()

	prov := provenance()
	line, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("# provenance %s\n", line)

	spanPath := filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	rep, err := runWorkload(w, *seed, *seconds, *trace == 1, spanPath)
	if err != nil {
		return err
	}
	fmt.Printf("# %s seed %d: %d operations attempted, %d failed, correct=%v\n",
		w.name, *seed, rep.Attempted, rep.Failed, rep.Correct)
	if *trace == 1 {
		fmt.Printf("# spans written to %s\n", spanPath)
	}
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	for _, m := range list {
		v := rep.Metrics[m.name]
		fmt.Printf("%-28s %16.6g %s\n", m.name, v.Value, v.Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// buildDir is where run.sh builds; the traced run writes its spans there.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
