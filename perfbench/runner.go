package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"time"

	"periodica"
)

// warmups operations run untimed first, so plan caches and lazy set-up
// are filled before timing.
const warmups = 2

// report is one run's outcome: the final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner drives one workload from a single closed-loop client: each
// operation starts when the previous one has returned.
type runner struct {
	ctx       context.Context
	e         *env
	ref       *periodica.Result
	attempted int
	failed    int
	rejected  int
}

// timed runs one measured operation and checks its result against the
// reference. A failed operation is counted and leaves no sample.
func (r *runner) timed(wrap func(func() error) error) (sample, bool) {
	var res *periodica.Result
	s, err := measure(func() error {
		return wrap(func() error {
			var err error
			res, err = r.e.op(r.ctx)
			return err
		})
	})
	r.attempted++
	var se *statusError
	if errors.As(err, &se) && (se.status == http.StatusTooManyRequests || se.status == http.StatusServiceUnavailable) {
		r.rejected++
	}
	if err == nil && !reflect.DeepEqual(res, r.ref) {
		err = errors.New("result differs from the checked reference")
	}
	if err != nil {
		r.failed++
		if r.failed == 1 {
			fmt.Fprintln(os.Stderr, "operation failed:", err)
		}
		return s, false
	}
	return s, true
}

func plain(f func() error) error { return f() }

// runWorkload sets the workload up, checks one operation against the
// oracle, then runs operations for the given seconds. Traced, every round
// runs one untraced and one traced operation and then probes each layer.
func runWorkload(w *workload, seed int64, seconds int, traced bool, spanPath string) (*report, error) {
	ctx := context.Background()
	in, err := w.make(seed)
	if err != nil {
		return nil, err
	}
	// The first construction is the one the operations use; more are timed
	// between the operations, so setup_s samples the same stretch of host
	// time as the latency.
	t0 := time.Now()
	e, err := construct(in, 0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := []float64{time.Since(t0).Seconds()}
	defer e.close()

	r := &runner{ctx: ctx, e: e}
	for i := 0; i < warmups; i++ {
		if _, err := e.op(ctx); err != nil {
			return nil, fmt.Errorf("warm-up operation: %w", err)
		}
	}
	if r.ref, err = e.op(ctx); err != nil {
		return nil, fmt.Errorf("reference operation: %w", err)
	}
	r.attempted++
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	if err := checkReference(ctx, e, r.ref); err != nil {
		fmt.Fprintln(os.Stderr, "check against the oracle failed:", err)
		rep.Correct = false
		r.failed++
	}

	total0, steal0 := hostCPU()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	if !traced {
		var samples []sample
		for time.Now().Before(deadline) {
			if s, ok := r.timed(plain); ok {
				samples = append(samples, s)
			}
			t0 := time.Now()
			extra, err := construct(in, len(setup))
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setup = append(setup, time.Since(t0).Seconds())
			extra.close()
		}
		set := func(name string, f func(sample) float64) {
			vs := make([]float64, len(samples))
			for i, s := range samples {
				vs[i] = f(s)
			}
			rep.Metrics[name] = metricValue{median(vs), unitOf(endToEnd, name)}
		}
		set("latency_p50_s", func(s sample) float64 { return s.wall })
		set("cpu_s_per_op", func(s sample) float64 { return s.cpu })
		set("alloc_mb_per_op", func(s sample) float64 { return s.alloc / (1 << 20) })
		set("rss_p50_mb", func(s sample) float64 { return s.rss })
		rep.Metrics["setup_s"] = metricValue{median(setup), "s"}
	} else if err := r.tracedRounds(w, seed, deadline, rep, spanPath); err != nil {
		return nil, err
	}
	if total1, steal1 := hostCPU(); total1 > total0 {
		fmt.Printf("# host steal %.1f%% of CPU time while measuring\n", 100*(steal1-steal0)/(total1-total0))
	}
	rep.Attempted, rep.Failed = r.attempted, r.failed
	return rep, nil
}

// tracedRounds runs rounds until the deadline (at least one): an untraced
// operation, the same operation inside a span, then every layer probe.
// trace.overhead_s is the traced operations' median latency minus the
// untraced ones'.
func (r *runner) tracedRounds(w *workload, seed int64, deadline time.Time, rep *report, spanPath string) error {
	se, seRef := r.e, r.ref
	if r.e.stack == nil {
		sin, err := serveInputs(seed)
		if err != nil {
			return err
		}
		if se, err = construct(sin, 0); err != nil {
			return err
		}
		defer se.close()
		if seRef, err = se.op(r.ctx); err != nil {
			return fmt.Errorf("served probe reference: %w", err)
		}
		if err := checkReference(r.ctx, se, seRef); err != nil {
			fmt.Fprintln(os.Stderr, "served probe check against the oracle failed:", err)
			rep.Correct = false
		}
	}
	lay, err := newLayers(r.e, r.ref, se, seRef)
	if err != nil {
		return err
	}
	tr := newTracer()
	var untraced, traced []float64
	for op := 1; op == 1 || time.Now().Before(deadline); op++ {
		if s, ok := r.timed(plain); ok {
			untraced = append(untraced, s.wall)
		}
		root := tr.begin("round", 0, op)
		if s, ok := r.timed(func(f func() error) error {
			_, err := tr.timed(w.name+" operation", root, op, f)
			return err
		}); ok {
			traced = append(traced, s.wall)
		}
		if err := lay.round(r.ctx, tr, root, op); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
		tr.end(root)
	}
	for _, m := range perLayer {
		if vs, ok := lay.acc[m.name]; ok {
			rep.Metrics[m.name] = metricValue{median(vs), m.unit}
		}
	}
	rep.Metrics["httpapi.rejected"] = metricValue{float64(r.rejected), "count"}
	rep.Metrics["trace.overhead_s"] = metricValue{median(traced) - median(untraced), "s"}
	for _, m := range perLayer {
		if _, ok := rep.Metrics[m.name]; !ok {
			return fmt.Errorf("traced run produced no %s", m.name)
		}
	}
	return tr.write(spanPath)
}

func unitOf(ms []metric, name string) string {
	for _, m := range ms {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
