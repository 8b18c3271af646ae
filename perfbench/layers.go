package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"

	"periodica"
	"periodica/internal/alphabet"
	"periodica/internal/conv"
	"periodica/internal/core"
	"periodica/internal/discretize"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/obs"
	"periodica/internal/query"
	"periodica/internal/series"
)

// layers reaches each program layer from outside, through that layer's own
// public functions, on the same inputs the workload's operation uses. The
// library probes run on the workload's series and query; the serving
// probes always send the served workload's request (generated from the
// same seed), so on the two symbol workloads they describe that request,
// not the workload.
type layers struct {
	e      *env // the workload
	ref    *periodica.Result
	se     *env // the served request
	seRef  *periodica.Result
	text   string         // the workload series' symbols
	inner  *series.Series // the same series, built by the series layer
	opt    core.Options
	norm   core.Options
	global *obs.Registry // renders only the process-wide families
	acc    map[string][]float64
}

// newLayers prepares the probes; ref and seRef are the checked results of
// the workload's operation and of the served request, which the probes'
// results must equal.
func newLayers(e *env, ref *periodica.Result, se *env, seRef *periodica.Result) (*layers, error) {
	l := &layers{e: e, ref: ref, se: se, seRef: seRef, global: obs.NewRegistry(), acc: map[string][]float64{}}
	if e.stack == nil {
		l.text = string(e.in.symbols)
		l.inner = series.FromString(l.text)
	} else {
		var err error
		l.text = e.series.String()
		if l.inner, err = series.FromAlphabetText(alphabet.Letters(e.in.params.levels), l.text); err != nil {
			return nil, err
		}
	}
	spec, err := query.Compile(e.in.params.query(true))
	if err != nil {
		return nil, err
	}
	if l.opt, err = core.OptionsFromSpec(spec); err != nil {
		return nil, err
	}
	if l.norm, err = core.NormalizeOptions(l.opt, l.inner.Len()); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *layers) add(name string, v float64) { l.acc[name] = append(l.acc[name], v) }

// round runs every probe once under the round's root span.
func (l *layers) round(ctx context.Context, tr *tracer, root, op int) error {
	for _, probe := range []func(context.Context, *tracer, int, int) error{
		l.library, l.pipeline, l.convolution, l.serving,
	} {
		if err := probe(ctx, tr, root, op); err != nil {
			return err
		}
	}
	return nil
}

// library probes the facade: series construction, an uncached query
// compile, and MineQueryContext against core.Mine on the same inputs.
func (l *layers) library(ctx context.Context, tr *tracer, root, op int) error {
	d, err := tr.timed("periodica.NewSeriesFromString", root, op, func() error {
		_, err := periodica.NewSeriesFromString(l.text)
		return err
	})
	if err != nil {
		return err
	}
	l.add("periodica.series_build_s", d)

	src := fresh(l.e.in.params.query(false), 1<<15+op)
	if d, err = tr.timed("query.Compile", root, op, func() error {
		_, err := query.Compile(src)
		return err
	}); err != nil {
		return err
	}
	l.add("query.compile_s", d)

	var shaped *periodica.Result
	before := scrapeRegistry(l.global)
	facade, err := tr.timed("periodica.MineQueryContext", root, op, func() error {
		var err error
		shaped, err = periodica.MineQueryContext(ctx, l.e.series, l.e.query)
		return err
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(shaped, l.ref) {
		return fmt.Errorf("MineQueryContext probe result differs from the checked reference")
	}
	after := scrapeRegistry(l.global)
	for _, stage := range []string{"detect", "sweep", "resolve", "enumerate"} {
		l.add("core."+stage+"_s", delta(before, after,
			fmt.Sprintf("periodica_stage_duration_seconds_sum{stage=%q}", stage)))
	}

	var res *core.Result
	mine, err := tr.timed("core.Mine", root, op, func() error {
		var err error
		res, err = core.Mine(l.inner, l.opt)
		return err
	})
	if err != nil {
		return err
	}
	l.add("periodica.convert_s", facade-mine)
	converted := len(res.Periodicities) + len(res.SingleSymbol) + len(res.Patterns)
	returned := len(shaped.Periodicities) + len(shaped.SingleSymbolPatterns) + len(shaped.Patterns)
	l.add("periodica.items_converted", float64(converted))
	l.add("periodica.items_returned", float64(returned))
	l.add("periodica.shape_keep_ratio", float64(returned)/float64(converted))
	rendered := 0
	for _, pt := range res.SingleSymbol {
		rendered += pt.Period
	}
	for _, pt := range res.Patterns {
		rendered += pt.Period
	}
	l.add("periodica.rendered_bytes", float64(rendered))
	l.add("core.periodicities", float64(len(res.Periodicities)))
	l.add("core.patterns", float64(len(res.Patterns)))
	truncated := 0.0
	if res.PatternsTruncated {
		truncated = 1
	}
	l.add("core.patterns_truncated", truncated)
	return nil
}

// pipeline probes the sweep's prune (the survivor lists a coordinator
// ships) and the discretize layer.
func (l *layers) pipeline(ctx context.Context, tr *tracer, root, op int) error {
	var surv [][]int32
	d, err := tr.timed("core.ShardSurvivors", root, op, func() error {
		var err error
		surv, err = core.ShardSurvivors(ctx, l.inner, l.norm)
		return err
	})
	if err != nil {
		return err
	}
	l.add("dist.survivors_s", d)
	swept := float64(len(surv) * l.inner.Alphabet().Size())
	kept := 0
	for _, s := range surv {
		kept += len(s)
	}
	l.add("core.sweep_pairs", swept)
	l.add("core.survivor_pairs", float64(kept))
	l.add("core.sweep_keep_ratio", float64(kept)/swept)

	values, levels := l.e.in.values, l.e.in.params.levels
	if levels == 0 {
		levels = len(l.inner.Alphabet().Symbols())
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if d, err = tr.timed("discretize.Apply", root, op, func() error {
		scheme, err := discretize.NewEqualWidth(lo, hi, levels)
		if err != nil {
			return err
		}
		_, err = scheme.Apply(values, alphabet.Letters(levels))
		return err
	}); err != nil {
		return err
	}
	l.add("discretize.equal_width_s", d)
	return nil
}

// convolution probes the lag-count driver on all cores and on one, with
// the FFT kernel counters it moves. The flop and byte figures are computed
// from the transform size, not measured: per symbol one forward and one
// inverse real transform of N points, 2.5·N·log2 N flops each, each of its
// log2(N/2) radix-2 stages reading and writing N/2 complex values.
func (l *layers) convolution(ctx context.Context, tr *tracer, root, op int) error {
	before := scrapeRegistry(l.global)
	d, err := tr.timed("conv.LagMatchCountsExec", root, op, func() error {
		_, err := conv.LagMatchCountsExec(l.inner, exec.New(exec.Config{Cancel: ctx.Err}), 0, nil)
		return err
	})
	if err != nil {
		return err
	}
	after := scrapeRegistry(l.global)
	l.add("conv.lag_counts_s", d)
	for _, k := range []string{"radix2", "fourstep", "real", "batch"} {
		l.add("fft.kernel_"+k, delta(before, after, fmt.Sprintf("periodica_fft_kernel_total{kernel=%q}", k)))
	}
	n := float64(fft.NextPow2(2 * l.inner.Len()))
	sigma := float64(l.inner.Alphabet().Size())
	gflop := sigma * 2 * 2.5 * n * math.Log2(n) / 1e9
	l.add("fft.size", n)
	l.add("fft.computed_gflop", gflop)
	l.add("fft.computed_gbytes", sigma*2*math.Log2(n/2)*(n/2)*16*2/1e9)
	l.add("fft.achieved_gflops", gflop/d)

	if d, err = tr.timed("conv.LagMatchCountsExec/1", root, op, func() error {
		_, err := conv.LagMatchCountsExec(l.inner, exec.New(exec.Config{Workers: 1, Cancel: ctx.Err}), 1, nil)
		return err
	}); err != nil {
		return err
	}
	l.add("conv.lag_counts_1t_s", d)
	return nil
}

// serving probes the served request: the series rendering the coordinator
// starts with, one POST /v1/mine with the program's own serving, dist and
// query counters read around it, and the coordinator's Mine called
// directly.
func (l *layers) serving(ctx context.Context, tr *tracer, root, op int) error {
	se := l.se
	d, err := tr.timed("series.String", root, op, func() error {
		_ = se.series.String()
		return nil
	})
	if err != nil {
		return err
	}
	l.add("series.string_s", d)

	st := se.stack
	before := l.scrapeStack(st)
	calls0, out0, in0 := st.wire.calls.Load(), st.wire.out.Load(), st.wire.in.Load()
	var res *periodica.Result
	var respBytes int
	latency, err := tr.timed("httpapi.POST /v1/mine", root, op, func() error {
		var err error
		res, respBytes, err = st.mine(ctx, se.in.body)
		return err
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(res, l.seRef) {
		return fmt.Errorf("served probe result differs from its checked reference")
	}
	after := l.scrapeStack(st)
	mineS := delta(before, after, `periodica_mine_duration_seconds_sum{endpoint="/v1/mine"}`)
	l.add("httpapi.mine_s", mineS)
	l.add("httpapi.edge_s", latency-mineS)
	shardSum := delta(before, after, `worker periodica_http_request_duration_seconds_sum{endpoint="/v1/shard"}`)
	shardCount := delta(before, after, `worker periodica_http_request_duration_seconds_count{endpoint="/v1/shard"}`)
	l.add("httpapi.shard_s", shardSum/math.Max(shardCount, 1))
	l.add("httpapi.request_bytes", float64(len(se.in.body)))
	l.add("httpapi.response_bytes", float64(respBytes))
	l.add("query.cache_hits", delta(before, after, "periodica_query_cache_hits_total"))
	l.add("dist.shards", after.family("periodica_dist_shards_total")-before.family("periodica_dist_shards_total"))
	l.add("dist.shard_calls", float64(st.wire.calls.Load()-calls0))
	l.add("dist.retries", delta(before, after, "periodica_dist_retries_total"))
	l.add("dist.hedges", delta(before, after, "periodica_dist_hedges_total"))
	l.add("dist.fallbacks", delta(before, after, "periodica_dist_local_fallbacks_total"))
	l.add("dist.integrity_failures", delta(before, after, "periodica_dist_integrity_failures_total"))
	latSum := delta(before, after, "periodica_dist_shard_duration_seconds_sum")
	latCount := delta(before, after, "periodica_dist_shard_duration_seconds_count")
	l.add("dist.shard_latency_s", latSum/math.Max(latCount, 1))
	l.add("dist.wire_bytes_out", float64(st.wire.out.Load()-out0))
	l.add("dist.wire_bytes_in", float64(st.wire.in.Load()-in0))

	var merged *periodica.Result
	if d, err = tr.timed("dist.Coordinator.Mine", root, op, func() error {
		var err error
		merged, err = st.coord.Mine(ctx, se.series, se.query.Options())
		return err
	}); err != nil {
		return err
	}
	if merged, err = se.query.Shape(se.series, merged); err != nil {
		return err
	}
	if !reflect.DeepEqual(merged, l.seRef) {
		return fmt.Errorf("Coordinator.Mine probe result differs from the checked reference")
	}
	l.add("dist.coordinator_mine_s", d)
	return nil
}

// scrapeStack reads the front server's registry (which also renders the
// process-wide families) and adds the workers' /v1/shard series under a
// "worker " prefix.
func (l *layers) scrapeStack(st *stack) scrape {
	out := scrapeRegistry(st.front.reg)
	for _, w := range st.workers {
		for k, v := range scrapeRegistry(w.reg) {
			if strings.Contains(k, `endpoint="/v1/shard"`) {
				out["worker "+k] += v
			}
		}
	}
	return out
}
