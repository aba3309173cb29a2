package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server/wire"
)

// Client is a typed client of the /v2 service API; it plays the role of
// the mobile app (the paper's prototype). It caches each user's policy
// and renegotiates automatically: when the server answers 409
// stale_policy it ships the current policy inline, the client adopts it
// and retries the report once — the paper's dynamic-policy update
// without a second round trip.
//
// Every request path has a Context variant; the plain methods use
// context.Background(). Transport errors and 5xx responses are retried
// with capped, jittered exponential backoff (see RetryPolicy —
// re-sending reports is safe because ingestion replaces on (user, t)).
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy

	mu       sync.Mutex
	policies map[int]ClientPolicy // last policy seen per user
}

// RetryPolicy configures the client's handling of transport errors and
// 5xx responses. Non-5xx HTTP errors (4xx, including stale_policy) are
// never retried here — they are protocol outcomes, not transient
// failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 1 mean a single attempt (retry disabled).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. Jitter keeps a fleet of clients from
	// synchronizing: the actual sleep is uniform in [d/2, d]. Zero or
	// negative inherits DefaultRetryPolicy's value, so a policy that
	// only sets MaxAttempts still backs off.
	BaseDelay time.Duration
	// MaxDelay caps the (pre-jitter) backoff. Zero or negative inherits
	// DefaultRetryPolicy's value.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the retry used by NewClient unless WithRetry
// overrides it.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}

// Option configures a Client.
type Option func(*Client)

// WithRetry sets the client's retry policy. RetryPolicy{MaxAttempts: 1}
// disables retries.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// NewClient creates a client for the given base URL (e.g.
// "http://localhost:8080"). A nil httpClient uses http.DefaultClient.
func NewClient(base string, httpClient *http.Client, opts ...Option) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: base, hc: httpClient, retry: DefaultRetryPolicy, policies: make(map[int]ClientPolicy)}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// APIError is a decoded /v2 error envelope. On CodeStalePolicy, Policy
// carries the server's current policy for the user; on CodeQueueFull
// and CodeNodeDown, RetryAfter carries the server's backoff hint —
// taken from the envelope's retry_after_ms when present, else from a
// Retry-After header (which is how 503s from the cluster router and
// plain proxies announce theirs).
type APIError struct {
	Status     int    // HTTP status
	Code       string // machine-readable wire code
	Message    string
	Policy     *wire.Policy  // inline renegotiation payload, if any
	RetryAfter time.Duration // backoff hint of a 429/503, 0 when none was sent
	Node       string        // cluster node named by a node_unavailable routing error
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server client: %d %s: %s", e.Status, e.Code, e.Message)
}

// IsStalePolicy reports whether err is a stale-policy renegotiation
// response.
func IsStalePolicy(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == wire.CodeStalePolicy
}

// backoff returns the jittered sleep before retry number `retryN` (1-
// based): exponential in BaseDelay, capped at MaxDelay, uniform in
// [d/2, d]. Unset (non-positive) delay fields fall back to
// DefaultRetryPolicy so a tight retry loop is impossible to configure
// by accident.
func (c *Client) backoff(retryN int) time.Duration {
	base, max := c.retry.BaseDelay, c.retry.MaxDelay
	if base <= 0 {
		base = DefaultRetryPolicy.BaseDelay
	}
	if max <= 0 {
		max = DefaultRetryPolicy.MaxDelay
	}
	d := base << (retryN - 1)
	if d <= 0 || d > max { // <= 0: shift overflow on absurd retryN
		d = max
	}
	return d/2 + rand.N(d/2+1)
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}

// do performs one JSON API request with retry; see doBytes for the
// retry contract.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	contentType := ""
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return fmt.Errorf("server client: encoding request: %w", err)
		}
		contentType = "application/json"
	}
	return c.doBytes(ctx, method, path, contentType, data, out)
}

// doBytes performs one API request with a pre-encoded body (sent with
// contentType; an empty contentType means no body) and retry: transport
// errors and 5xx responses are retried up to MaxAttempts with jittered
// exponential backoff, and responses carrying a retry hint — 429
// async-ingest backpressure (retry_after_ms) and 503s with a
// Retry-After header (e.g. the cluster router's node_unavailable) — are
// retried after the hint instead of the backoff curve; everything else
// is decoded (into out or an *APIError) and returned as-is. Taking
// bytes rather than a value keeps the binary report path re-sendable
// across retries without re-encoding.
func (c *Client) doBytes(ctx context.Context, method, path, contentType string, data []byte, out any) error {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			// The previous iteration chose the delay: the 429 hint when
			// the server supplied one, the backoff curve otherwise.
			delay := c.backoff(attempt - 1)
			if ae, ok := lastErr.(*APIError); ok && ae.RetryAfter > 0 {
				// Wait at least the hint — the server derived it from how
				// far its drain is behind, so retrying earlier is a near-
				// guaranteed second 429 — with jitter added on top so a
				// fleet of throttled clients does not re-send in phase.
				// The hint itself is clamped to the policy's MaxDelay: a
				// legitimate server's hint is at most 2s (= the default
				// cap), and a hostile or buggy one must not be able to
				// stall the caller for an hour.
				hint := ae.RetryAfter
				if max := c.retry.MaxDelay; max <= 0 {
					if hint > DefaultRetryPolicy.MaxDelay {
						hint = DefaultRetryPolicy.MaxDelay
					}
				} else if hint > max {
					hint = max
				}
				delay = hint + rand.N(hint/2+1)
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return fmt.Errorf("server client: %s %s: %w (last error: %v)", method, path, err, lastErr)
			}
		}
		var rd io.Reader
		if contentType != "" {
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return fmt.Errorf("server client: %s %s: %w", method, path, err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("server client: %s %s: %w", method, path, err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		retriable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		if retriable && attempt < attempts {
			// Decode the envelope with a small cap — a 429 hint is a few
			// bytes and 5xx pages from intermediaries can be huge; the
			// generous stale_policy limit is for the terminal path only.
			// Reading (vs just discarding) keeps the connection reusable.
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			lastErr = apiErrorFromResponse(resp, body)
			continue
		}
		err = decodeResponse(resp, out)
		resp.Body.Close()
		return err
	}
	return lastErr
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	return c.do(ctx, http.MethodPost, path, body, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// apiErrorFromResponse decodes an error-envelope body into an
// *APIError, falling back to the bare status when the body is not an
// envelope. The backoff hint comes from the envelope's retry_after_ms
// when present; otherwise a Retry-After header fills it in, so 503s
// from the cluster router (and anything else that only speaks the
// standard header) drive the same polite retry as 429 backpressure.
func apiErrorFromResponse(resp *http.Response, body []byte) *APIError {
	headerHint := retryAfterHeader(resp.Header)
	var e wire.Error
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		code := e.Code
		if code == "" {
			code = wire.CodeUnknown // /v1 envelopes carry no code
		}
		hint := time.Duration(e.RetryAfterMS) * time.Millisecond
		if hint <= 0 {
			hint = headerHint
		}
		return &APIError{
			Status: resp.StatusCode, Code: code, Message: e.Error, Policy: e.Policy,
			RetryAfter: hint, Node: e.Node,
		}
	}
	return &APIError{Status: resp.StatusCode, Code: wire.CodeUnknown, Message: resp.Status, RetryAfter: headerHint}
}

// retryAfterHeader parses a Retry-After header's delay-seconds form
// (the only form PANDA servers emit; HTTP-date values are ignored).
func retryAfterHeader(h http.Header) time.Duration {
	raw := h.Get("Retry-After")
	if raw == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(raw))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// rawResponse receives a 2xx response body verbatim: decodeResponse
// reads it whole instead of JSON-decoding it.
type rawResponse []byte

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode >= 300 {
		// Generous cap: a stale_policy envelope carries a whole policy
		// graph inline, which on a large grid runs to many megabytes —
		// truncating it would silently break renegotiation.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		return apiErrorFromResponse(resp, body)
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*rawResponse); ok {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("server client: reading response: %w", err)
		}
		*raw = b
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("server client: decoding response: %w", err)
	}
	return nil
}

// ClientPolicy is the decoded policy of a user.
type ClientPolicy struct {
	User    int
	Epsilon float64
	Version int
	Graph   *policygraph.Graph
}

func decodePolicy(p wire.Policy) (ClientPolicy, error) {
	cp := ClientPolicy{User: p.User, Epsilon: p.Epsilon, Version: p.Version}
	if len(p.Graph) > 0 {
		var g policygraph.Graph
		if err := g.UnmarshalJSON(p.Graph); err != nil {
			return ClientPolicy{}, fmt.Errorf("server client: decoding policy graph: %w", err)
		}
		cp.Graph = &g
	}
	return cp, nil
}

// Policy fetches the user's current policy (graph included) and caches
// it for automatic version negotiation.
func (c *Client) Policy(user int) (ClientPolicy, error) {
	return c.PolicyContext(context.Background(), user)
}

// PolicyContext is Policy under an explicit context.
func (c *Client) PolicyContext(ctx context.Context, user int) (ClientPolicy, error) {
	var body rawResponse
	if err := c.get(ctx, fmt.Sprintf("/v2/policy?user=%d", user), &body); err != nil {
		return ClientPolicy{}, err
	}
	cp, err := decodePolicyBody(body)
	if err != nil {
		return ClientPolicy{}, err
	}
	c.mu.Lock()
	c.policies[user] = cp
	c.mu.Unlock()
	return cp, nil
}

// CachedPolicy returns the last policy seen for the user, if any.
func (c *Client) CachedPolicy(user int) (ClientPolicy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, ok := c.policies[user]
	return cp, ok
}

// policyVersion returns the cached version for the user, fetching the
// policy on a cold cache.
func (c *Client) policyVersion(ctx context.Context, user int) (int, error) {
	if cp, ok := c.CachedPolicy(user); ok {
		return cp.Version, nil
	}
	cp, err := c.PolicyContext(ctx, user)
	if err != nil {
		return 0, err
	}
	return cp.Version, nil
}

// adoptStalePolicy absorbs the inline policy of a stale_policy error
// into the cache and reports whether a retry is warranted.
func (c *Client) adoptStalePolicy(user int, err error) bool {
	ae, ok := err.(*APIError)
	if !ok || ae.Code != wire.CodeStalePolicy || ae.Policy == nil {
		return false
	}
	cp, derr := decodePolicy(*ae.Policy)
	if derr != nil {
		return false
	}
	c.mu.Lock()
	c.policies[user] = cp
	c.mu.Unlock()
	return true
}

// ReportBatch sends many releases for one user in one round trip — the
// contact-tracing whole-history re-send. The policy version is managed
// automatically: on a stale-policy conflict the client adopts the
// server's inline policy and retries once under the new version.
//
// The retry re-submits the same releases. Releases are mechanism
// outputs, so re-submitting is safe post-processing of data already
// perturbed under the policy the user had when they were generated —
// but the server stamps stored records with its current version (as
// /v1 always did). Protocol flows that must re-perturb history under
// the renegotiated graph (the paper's contact-tracing re-send) should
// regenerate the batch instead: call CachedPolicy after a failed send
// (or check IsStalePolicy), rebuild the mechanism, and send the new
// releases — or use the in-process panda.User, which rebuilds its
// mechanism on every policy change.
func (c *Client) ReportBatch(user int, releases []wire.Release) (wire.BatchReportResponse, error) {
	return c.ReportBatchContext(context.Background(), user, releases)
}

// ReportBatchContext is ReportBatch under an explicit context.
func (c *Client) ReportBatchContext(ctx context.Context, user int, releases []wire.Release) (wire.BatchReportResponse, error) {
	ver, err := c.policyVersion(ctx, user)
	if err != nil {
		return wire.BatchReportResponse{}, err
	}
	var out wire.BatchReportResponse
	req := wire.BatchReportRequest{User: user, PolicyVersion: ver, Releases: releases}
	err = c.post(ctx, "/v2/reports", req, &out)
	if err != nil && c.adoptStalePolicy(user, err) {
		req.PolicyVersion, _ = c.policyVersion(ctx, user)
		err = c.post(ctx, "/v2/reports", req, &out)
	}
	if err != nil {
		return wire.BatchReportResponse{}, err
	}
	return out, nil
}

// AsyncAck is the client-side result of an async batch report. When the
// server runs without an ingest queue it falls back to synchronous
// handling; SyncFallback is then true and Queued counts the records
// applied (the ack is stronger than asked for, never weaker).
type AsyncAck struct {
	Queued        int  // records acknowledged
	QueueDepth    int  // records pending behind the ack (0 on sync fallback)
	PolicyVersion int  // version the batch was accepted under
	SyncFallback  bool // server had no queue and applied synchronously
}

// asyncOrSyncResponse decodes either acknowledgement shape of
// POST /v2/reports?mode=async: the 202 AsyncReportResponse or, on
// servers without async ingest, the 200 BatchReportResponse.
type asyncOrSyncResponse struct {
	Queued        *int `json:"queued"`
	QueueDepth    int  `json:"queue_depth"`
	Accepted      *int `json:"accepted"`
	Replaced      int  `json:"replaced"`
	PolicyVersion int  `json:"policy_version"`
}

// ReportBatchAsync sends many releases for one user with early
// acknowledgement: the server validates and queues the batch, answering
// before it reaches the store (ack ≠ applied ≠ durable — see API.md).
// Backpressure (429 queue_full) is retried automatically up to the
// retry policy's MaxAttempts, honoring the server's retry_after hint;
// re-sending is safe because ingestion replaces on (user, t). Stale
// policies renegotiate exactly like ReportBatch.
func (c *Client) ReportBatchAsync(user int, releases []wire.Release) (AsyncAck, error) {
	return c.ReportBatchAsyncContext(context.Background(), user, releases)
}

// ReportBatchAsyncContext is ReportBatchAsync under an explicit context.
func (c *Client) ReportBatchAsyncContext(ctx context.Context, user int, releases []wire.Release) (AsyncAck, error) {
	ver, err := c.policyVersion(ctx, user)
	if err != nil {
		return AsyncAck{}, err
	}
	var out asyncOrSyncResponse
	req := wire.BatchReportRequest{User: user, PolicyVersion: ver, Releases: releases, Async: true}
	err = c.post(ctx, "/v2/reports?mode=async", req, &out)
	if err != nil && c.adoptStalePolicy(user, err) {
		req.PolicyVersion, _ = c.policyVersion(ctx, user)
		err = c.post(ctx, "/v2/reports?mode=async", req, &out)
	}
	if err != nil {
		return AsyncAck{}, err
	}
	ack := AsyncAck{PolicyVersion: out.PolicyVersion}
	switch {
	case out.Queued != nil:
		ack.Queued, ack.QueueDepth = *out.Queued, out.QueueDepth
	case out.Accepted != nil:
		ack.Queued, ack.SyncFallback = *out.Accepted+out.Replaced, true
	default:
		return AsyncAck{}, errors.New("server client: unrecognized report acknowledgement")
	}
	return ack, nil
}

// binaryBufs pools the encode buffers of the binary report path so a
// client looping over batches reuses one buffer instead of allocating a
// body per send.
var binaryBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// reportBinary encodes the batch in the binary record format and POSTs
// it, renegotiating once on a stale policy (re-encoding under the new
// version — the frames carry the version, so unlike the JSON path the
// body itself must be rebuilt).
func (c *Client) reportBinary(ctx context.Context, user int, releases []wire.Release, path string, out any) error {
	ver, err := c.policyVersion(ctx, user)
	if err != nil {
		return err
	}
	bp := binaryBufs.Get().(*[]byte)
	defer func() {
		// Oversized encode buffers (a maximum batch is multiple MB) go
		// to the GC rather than staying pinned in the pool.
		if cap(*bp) <= maxPooledBody {
			*bp = (*bp)[:0]
			binaryBufs.Put(bp)
		}
	}()
	*bp = wire.AppendBinaryReport((*bp)[:0], user, ver, releases)
	err = c.doBytes(ctx, http.MethodPost, path, wire.ContentTypeBinary, *bp, out)
	if err != nil && c.adoptStalePolicy(user, err) {
		ver, _ = c.policyVersion(ctx, user)
		*bp = wire.AppendBinaryReport((*bp)[:0], user, ver, releases)
		err = c.doBytes(ctx, http.MethodPost, path, wire.ContentTypeBinary, *bp, out)
	}
	return err
}

// ReportBatchBinary is ReportBatch over the binary record format
// (Content-Type application/x-panda-records): the same synchronous
// semantics and stale-policy renegotiation, but the batch is framed
// client-side into the store's 48-byte record layout, so the server
// ingests it without JSON materialization. Prefer it for hot ingest
// loops; the JSON path remains the default for debuggability.
func (c *Client) ReportBatchBinary(user int, releases []wire.Release) (wire.BatchReportResponse, error) {
	return c.ReportBatchBinaryContext(context.Background(), user, releases)
}

// ReportBatchBinaryContext is ReportBatchBinary under an explicit
// context.
func (c *Client) ReportBatchBinaryContext(ctx context.Context, user int, releases []wire.Release) (wire.BatchReportResponse, error) {
	var out wire.BatchReportResponse
	if err := c.reportBinary(ctx, user, releases, "/v2/reports", &out); err != nil {
		return wire.BatchReportResponse{}, err
	}
	return out, nil
}

// ReportBatchBinaryAsync is ReportBatchAsync over the binary record
// format: early acknowledgement plus the zero-materialization ingest
// path. Backpressure and renegotiation behave exactly like
// ReportBatchAsync.
func (c *Client) ReportBatchBinaryAsync(user int, releases []wire.Release) (AsyncAck, error) {
	return c.ReportBatchBinaryAsyncContext(context.Background(), user, releases)
}

// ReportBatchBinaryAsyncContext is ReportBatchBinaryAsync under an
// explicit context.
func (c *Client) ReportBatchBinaryAsyncContext(ctx context.Context, user int, releases []wire.Release) (AsyncAck, error) {
	var out asyncOrSyncResponse
	if err := c.reportBinary(ctx, user, releases, "/v2/reports?mode=async", &out); err != nil {
		return AsyncAck{}, err
	}
	ack := AsyncAck{PolicyVersion: out.PolicyVersion}
	switch {
	case out.Queued != nil:
		ack.Queued, ack.QueueDepth = *out.Queued, out.QueueDepth
	case out.Accepted != nil:
		ack.Queued, ack.SyncFallback = *out.Accepted+out.Replaced, true
	default:
		return AsyncAck{}, errors.New("server client: unrecognized report acknowledgement")
	}
	return ack, nil
}

// Healthz probes GET /v2/healthz and returns the decoded body for both
// outcomes — a healthy 200 and a failing 503 both carry the same
// response shape, distinguished by its Status field ("ok"/"failing").
// Unlike every other method this one never retries: a probe wants the
// current truth, not an eventually-successful one. The error is non-nil
// only when the probe itself failed (transport error, or a body that is
// not a healthz response).
func (c *Client) Healthz() (wire.HealthzResponse, error) {
	return c.HealthzContext(context.Background())
}

// HealthzContext is Healthz under an explicit context.
func (c *Client) HealthzContext(ctx context.Context) (wire.HealthzResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v2/healthz", nil)
	if err != nil {
		return wire.HealthzResponse{}, fmt.Errorf("server client: healthz: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return wire.HealthzResponse{}, fmt.Errorf("server client: healthz: %w", err)
	}
	defer resp.Body.Close()
	var out wire.HealthzResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil || out.Status == "" {
		return wire.HealthzResponse{}, fmt.Errorf("server client: healthz: status %d with non-healthz body", resp.StatusCode)
	}
	return out, nil
}

// IngestStats fetches the async ingestion queue's observability
// counters (GET /v2/ingest/stats). Enabled is false on servers running
// without async ingest.
func (c *Client) IngestStats() (wire.IngestStatsResponse, error) {
	return c.IngestStatsContext(context.Background())
}

// IngestStatsContext is IngestStats under an explicit context.
func (c *Client) IngestStatsContext(ctx context.Context) (wire.IngestStatsResponse, error) {
	var out wire.IngestStatsResponse
	if err := c.get(ctx, "/v2/ingest/stats", &out); err != nil {
		return wire.IngestStatsResponse{}, err
	}
	return out, nil
}

// AnalyticsStats fetches the analytics engine's cache counters
// (GET /v2/analytics/stats). Through the cluster router the counters
// are summed across nodes.
func (c *Client) AnalyticsStats() (wire.AnalyticsStatsResponse, error) {
	return c.AnalyticsStatsContext(context.Background())
}

// AnalyticsStatsContext is AnalyticsStats under an explicit context.
func (c *Client) AnalyticsStatsContext(ctx context.Context) (wire.AnalyticsStatsResponse, error) {
	var out wire.AnalyticsStatsResponse
	if err := c.get(ctx, "/v2/analytics/stats", &out); err != nil {
		return wire.AnalyticsStatsResponse{}, err
	}
	return out, nil
}

// Report sends a single released location (a batch of one).
func (c *Client) Report(user, t int, p geo.Point) error {
	return c.ReportContext(context.Background(), user, t, p)
}

// ReportContext is Report under an explicit context.
func (c *Client) ReportContext(ctx context.Context, user, t int, p geo.Point) error {
	_, err := c.ReportBatchContext(ctx, user, []wire.Release{{T: t, X: p.X, Y: p.Y}})
	return err
}

// RecordsPage fetches one page of the user's stored releases. An empty
// cursor starts from the beginning; limit <= 0 uses the server default.
func (c *Client) RecordsPage(user int, cursor string, limit int) (wire.RecordsPage, error) {
	return c.RecordsPageContext(context.Background(), user, cursor, limit)
}

// RecordsPageContext is RecordsPage under an explicit context.
func (c *Client) RecordsPageContext(ctx context.Context, user int, cursor string, limit int) (wire.RecordsPage, error) {
	q := url.Values{}
	q.Set("user", fmt.Sprint(user))
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	var page wire.RecordsPage
	if err := c.get(ctx, "/v2/records?"+q.Encode(), &page); err != nil {
		return wire.RecordsPage{}, err
	}
	return page, nil
}

// Records fetches all of a user's stored releases, following pagination
// cursors until the listing is complete.
func (c *Client) Records(user int) ([]Record, error) {
	return c.RecordsContext(context.Background(), user)
}

// RecordsContext is Records under an explicit context.
func (c *Client) RecordsContext(ctx context.Context, user int) ([]Record, error) {
	var out []Record
	cursor := ""
	for {
		page, err := c.RecordsPageContext(ctx, user, cursor, maxPageLimit)
		if err != nil {
			return nil, err
		}
		for _, wr := range page.Records {
			out = append(out, Record{
				User: wr.User, T: wr.T, Point: geo.Pt(wr.X, wr.Y),
				Cell: wr.Cell, PolicyVersion: wr.PolicyVersion,
			})
		}
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// MarkInfected publishes newly infected cells; returns affected users.
// Note the one retry caveat of this endpoint: if a response is lost in
// transit after the server applied the update, the retried call reports
// the (now-empty) second application's changed list.
func (c *Client) MarkInfected(cells []int) ([]int, error) {
	return c.MarkInfectedContext(context.Background(), cells)
}

// MarkInfectedContext is MarkInfected under an explicit context.
func (c *Client) MarkInfectedContext(ctx context.Context, cells []int) ([]int, error) {
	var out wire.InfectedResponse
	if err := c.post(ctx, "/v2/infected", wire.InfectedRequest{Cells: cells}, &out); err != nil {
		return nil, err
	}
	return out.Changed, nil
}

// HealthCode fetches the user's certification over the last `window`
// timesteps anchored at `now` (window <= 0 = all history, now < 0 = the
// server's latest timestep).
func (c *Client) HealthCode(user, window, now int) (HealthCode, error) {
	return c.HealthCodeContext(context.Background(), user, window, now)
}

// HealthCodeContext is HealthCode under an explicit context.
func (c *Client) HealthCodeContext(ctx context.Context, user, window, now int) (HealthCode, error) {
	path := fmt.Sprintf("/v2/healthcode?user=%d", user)
	if window > 0 {
		path += fmt.Sprintf("&window=%d", window)
	}
	if now >= 0 {
		path += fmt.Sprintf("&now=%d", now)
	}
	var out wire.HealthCodeResponse
	if err := c.get(ctx, path, &out); err != nil {
		return "", err
	}
	return HealthCode(out.Code), nil
}

// Density fetches regional release counts at a timestep.
func (c *Client) Density(t, blockRows, blockCols int) ([]int, error) {
	return c.DensityContext(context.Background(), t, blockRows, blockCols)
}

// DensityContext is Density under an explicit context.
func (c *Client) DensityContext(ctx context.Context, t, blockRows, blockCols int) ([]int, error) {
	var out wire.DensityResponse
	path := fmt.Sprintf("/v2/density?t=%d&block_rows=%d&block_cols=%d", t, blockRows, blockCols)
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Counts, nil
}

// DensitySeries fetches per-region counts for a timestep range, served
// from the engine's per-timestep cache (GET /v2/density/series).
func (c *Client) DensitySeries(t0, t1, blockRows, blockCols int) ([][]int, error) {
	return c.DensitySeriesContext(context.Background(), t0, t1, blockRows, blockCols)
}

// DensitySeriesContext is DensitySeries under an explicit context.
func (c *Client) DensitySeriesContext(ctx context.Context, t0, t1, blockRows, blockCols int) ([][]int, error) {
	var out wire.DensitySeriesResponse
	path := fmt.Sprintf("/v2/density/series?t0=%d&t1=%d&block_rows=%d&block_cols=%d",
		t0, t1, blockRows, blockCols)
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Series, nil
}

// Exposure fetches the infected-place exposure series.
func (c *Client) Exposure(t0, t1 int) ([]int, error) {
	return c.ExposureContext(context.Background(), t0, t1)
}

// ExposureContext is Exposure under an explicit context.
func (c *Client) ExposureContext(ctx context.Context, t0, t1 int) ([]int, error) {
	var out wire.ExposureResponse
	if err := c.get(ctx, fmt.Sprintf("/v2/exposure?t0=%d&t1=%d", t0, t1), &out); err != nil {
		return nil, err
	}
	return out.Exposure, nil
}

// Census fetches the population health-code tally.
func (c *Client) Census(window, now int) (map[HealthCode]int, error) {
	return c.CensusContext(context.Background(), window, now)
}

// CensusContext is Census under an explicit context.
func (c *Client) CensusContext(ctx context.Context, window, now int) (map[HealthCode]int, error) {
	path := "/v2/census"
	sep := "?"
	if window > 0 {
		path += fmt.Sprintf("%swindow=%d", sep, window)
		sep = "&"
	}
	if now >= 0 {
		path += fmt.Sprintf("%snow=%d", sep, now)
	}
	var out wire.CensusResponse
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	census := make(map[HealthCode]int, len(out.Census))
	for code, n := range out.Census {
		census[HealthCode(code)] = n
	}
	return census, nil
}
