package main

import (
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// policyGETClock records when each GET /v2/policy response body is
// closed — the moment that fetch is over — so the test can place every
// policy fetch relative to the timed ingest window.
type policyGETClock struct {
	base http.RoundTripper

	mu   sync.Mutex
	done []time.Time
}

func (c *policyGETClock) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || req.URL.Path != "/v2/policy" {
		return resp, err
	}
	resp.Body = &closeClock{ReadCloser: resp.Body, c: c}
	return resp, nil
}

type closeClock struct {
	io.ReadCloser
	c    *policyGETClock
	once sync.Once
}

func (b *closeClock) Close() error {
	b.once.Do(func() {
		b.c.mu.Lock()
		b.c.done = append(b.c.done, time.Now())
		b.c.mu.Unlock()
	})
	return b.ReadCloser.Close()
}

// TestIngestWindowExcludesPolicyWarmup is the regression gate for the
// -load ingest clock: every per-user policy warmup ends before the timed
// window opens, so releases/sec and allocs/release measure ingest, not
// the policy-fetch storm.
func TestIngestWindowExcludesPolicyWarmup(t *testing.T) {
	cfg := loadConfig{users: 12, steps: 30, batch: 10}
	base, _, cleanup, err := startLoadTarget(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	clock := &policyGETClock{base: http.DefaultTransport}
	res, err := runIngestPhase(cfg, base, &http.Client{Transport: clock}, false)
	if err != nil {
		t.Fatal(err)
	}
	clock.mu.Lock()
	defer clock.mu.Unlock()
	if len(clock.done) != cfg.users {
		t.Errorf("%d policy fetches, want one warmup per user (%d)", len(clock.done), cfg.users)
	}
	for _, at := range clock.done {
		if !at.Before(res.start) {
			t.Fatalf("a policy fetch ended %v after the timed window opened", at.Sub(res.start))
		}
	}
}
