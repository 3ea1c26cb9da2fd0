package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// envelope is the part of a twistd job response the benchmark reads.
type envelope struct {
	Kind      string          `json:"kind"`
	Digest    string          `json:"digest"`
	Cached    bool            `json:"cached"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Result    json.RawMessage `json:"result"`
	Node      string          `json:"node"`
	Via       string          `json:"via"`
}

// Response classes, by the envelope alone.
const (
	classCold       = "cold"        // cached:false — the job ran (or coalesced onto a run)
	classHit        = "hit"         // cached:true, no via — served from the entry node's cache
	classForwardHit = "forward-hit" // cached:true with via — a peer's cache, one hop away
)

// classify names an envelope's response class.
func classify(e *envelope) string {
	switch {
	case !e.Cached:
		return classCold
	case e.Via == "":
		return classHit
	default:
		return classForwardHit
	}
}

// sample is one completed request as the client saw it.
type sample struct {
	Job     job
	Latency time.Duration // request write to body decoded
	Class   string        // "" when the request failed
	Elapsed time.Duration // the envelope's elapsed_ns
	Bytes   int           // response body size
	Env     *envelope
	Err     error // transport error, non-2xx, or a correctness mismatch
}

// newClient returns an HTTP client keeping one idle connection per daemon.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// do sends one job to base and decodes the envelope.
func do(c *http.Client, base string, j job) sample {
	s := sample{Job: j}
	start := time.Now()
	resp, err := c.Post(base+"/v1/"+j.Kind, "application/json", bytes.NewReader(j.Body))
	if err != nil {
		s.Err = err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.Err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.Err = fmt.Errorf("%s: HTTP %d: %s", j.Kind, resp.StatusCode, bytes.TrimSpace(body))
		return s
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		s.Err = fmt.Errorf("%s: decode envelope: %w", j.Kind, err)
		return s
	}
	s.Latency = time.Since(start)
	s.Env = &env
	s.Bytes = len(body)
	s.Elapsed = time.Duration(env.ElapsedNS)
	s.Class = classify(&env)
	return s
}
