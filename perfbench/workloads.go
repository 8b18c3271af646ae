package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"periodica"
	"periodica/internal/httpapi"
	"periodica/perfbench/oracle"
)

// workload is one set of inputs the benchmark drives the program with.
type workload struct {
	name string
	why  string
	make func(seed int64) (*inputs, error)
}

// inputs are a workload's generated data. symbols is what the oracle
// counts: the generated symbols, or for the served workload the oracle's
// own discretization of the readings. values feed the discretize probe and,
// for the served workload, the request body.
type inputs struct {
	params   mineParams
	symbols  []byte
	values   []float64
	body     []byte // the /v1/mine request; nil for the symbol workloads
	embedded int    // period the generator embedded; 0 for none
}

var workloads = []workload{
	{
		name: "mine-synth-1m",
		why:  "n=2^20, sigma=10, embedded period 25 with 20% noise: the FFT detection pass dominates the mine",
		make: func(seed int64) (*inputs, error) {
			sym := synthSymbols(seed)
			return &inputs{params: synthParams, symbols: sym, values: symbolLevels(sym), embedded: synthPeriod}, nil
		},
	},
	{
		name: "mine-walmart-top100",
		why:  "15 months of hourly Wal-Mart-style levels, periods up to 1000, top 100 by conf: resolve and result conversion dominate",
		make: func(seed int64) (*inputs, error) {
			values := hourlyReadings(seed, walmartHours)
			return &inputs{params: walmartParams, symbols: paperLevels(values), values: values}, nil
		},
	},
	{
		name: "serve-dist-2w",
		why:  "POST /v1/mine of 2^13 readings to a server sharding over two workers: discretize, JSON, shard wire and merge",
		make: serveInputs,
	},
}

// serveInputs are the readings of one /v1/mine request. The traced runs of
// the symbol workloads send the same request to probe the serving layers.
func serveInputs(seed int64) (*inputs, error) {
	values := hourlyReadings(seed, serveHours)
	sym, err := oracle.EqualWidth(values, serveParams.levels)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(httpapi.MineRequest{Values: values, Query: serveParams.query(false)})
	if err != nil {
		return nil, err
	}
	return &inputs{params: serveParams, symbols: sym, values: values, body: body}, nil
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// env is a constructed workload: the program-side state every operation
// uses. Building it is what setup_s measures.
type env struct {
	in     *inputs
	series *periodica.Series
	query  *periodica.Query
	stack  *stack // served workload only
}

// construct builds the series from the raw input and compiles the query;
// the served workload also starts its servers and waits until they answer
// /readyz. Each variant compiles a source new to the program's compile
// cache, as a fresh process would.
func construct(in *inputs, variant int) (*env, error) {
	q, err := periodica.CompileQuery(fresh(in.params.query(false), variant))
	if err != nil {
		return nil, err
	}
	e := &env{in: in, query: q}
	if in.body == nil {
		if e.series, err = periodica.NewSeriesFromString(string(in.symbols)); err != nil {
			return nil, err
		}
		return e, nil
	}
	if e.series, err = q.DiscretizeValues(in.values); err != nil {
		return nil, err
	}
	if e.stack, err = startStack(); err != nil {
		return nil, err
	}
	return e, nil
}

// fresh appends 16 blanks to a query, spaces and tabs spelling variant in
// binary, so every variant is a different source of the same length.
func fresh(query string, variant int) string {
	var pad [16]byte
	for i := range pad {
		pad[i] = " \t"[variant>>i&1]
	}
	return query + string(pad[:])
}

// op is one operation: a query and its input in, the shaped result out.
func (e *env) op(ctx context.Context) (*periodica.Result, error) {
	if e.stack != nil {
		res, _, err := e.stack.mine(ctx, e.in.body)
		return res, err
	}
	return periodica.MineQueryContext(ctx, e.series, e.query)
}

func (e *env) close() {
	if e.stack != nil {
		e.stack.stop()
	}
}
