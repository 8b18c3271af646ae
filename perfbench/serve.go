package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"periodica"
	"periodica/internal/dist"
	"periodica/internal/httpapi"
	"periodica/internal/obs"
)

// discardLog drops the servers' access logs, so log volume never varies
// the measurement.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// server is one httpapi.Server listening on a loopback port.
type server struct {
	reg  *obs.Registry
	hs   *http.Server
	url  string
	done chan error
}

func startServer(cfg httpapi.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.Logger = discardLog
	cfg.Metrics = obs.NewRegistry()
	s := &server{
		reg:  cfg.Metrics,
		hs:   &http.Server{Handler: httpapi.New(cfg), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
}

// wireCounter counts the coordinator's /v1/shard calls and the bytes they
// put on and take off the wire.
type wireCounter struct {
	base           *http.Transport
	calls, out, in atomic.Int64
}

func (w *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	w.calls.Add(1)
	if req.ContentLength > 0 {
		w.out.Add(req.ContentLength)
	}
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.in}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// stack is the served workload's program: a front server whose Distributor
// is a dist.Coordinator over two worker servers, all in this process.
// Hedging and shard verification are off, the coordinator's seed is fixed,
// and a shard that exhausts its attempts fails the mine instead of being
// recomputed locally.
type stack struct {
	workers []*server
	front   *server
	coord   *dist.Coordinator
	wire    *wireCounter
	client  *http.Client
}

func startStack() (*stack, error) {
	st := &stack{
		wire:   &wireCounter{base: &http.Transport{}},
		client: &http.Client{Transport: &http.Transport{}},
	}
	urls := make([]string, 2)
	for i := range urls {
		w, err := startServer(httpapi.Config{})
		if err != nil {
			st.stop()
			return nil, err
		}
		st.workers = append(st.workers, w)
		urls[i] = w.url
	}
	coord, err := dist.New(dist.Config{
		Workers:              urls,
		HedgeAfter:           0,
		VerifyShards:         0,
		Seed:                 1,
		DisableLocalFallback: true,
		Client:               &httpapi.ShardClient{HTTP: &http.Client{Transport: st.wire}},
		Logger:               discardLog,
	})
	if err != nil {
		st.stop()
		return nil, err
	}
	st.coord = coord
	if st.front, err = startServer(httpapi.Config{Distributor: coord}); err != nil {
		st.stop()
		return nil, err
	}
	for _, s := range append([]*server{st.front}, st.workers...) {
		if err := st.waitReady(s.url); err != nil {
			st.stop()
			return nil, err
		}
	}
	return st, nil
}

func (st *stack) waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := st.client.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after 10s: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (st *stack) stop() {
	if st.front != nil {
		st.front.stop()
	}
	for _, w := range st.workers {
		w.stop()
	}
	st.client.CloseIdleConnections()
	st.wire.base.CloseIdleConnections()
}

// statusError is a non-200 answer from the front server.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("POST /v1/mine: %d %s", e.status, e.body) }

// mine posts one request and decodes the result; it also returns the
// response size in bytes.
func (st *stack) mine(ctx context.Context, body []byte) (*periodica.Result, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.front.url+"/v1/mine", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(raw), &statusError{status: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	var res periodica.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, len(raw), err
	}
	return &res, len(raw), nil
}
