package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repaircount"
)

// This file is the probe plumbing shared by every HTTP role: the bounded
// slot pool with per-slot counter caches, the probe gate (slot, queue
// and deadline admission plus the canceled-probe answer), the write-path
// health flag, the structured error body, and the query extraction. The
// daemon, the coordinator (a Server with a fleet hook) and the shard
// workers of internal/cluster all admit probes through a Gate, so
// overload, deadline and cancellation answers cannot drift between them.

// ErrOverloaded is returned by Pool.Acquire when QueueDepth probes
// already wait for a slot.
var ErrOverloaded = errors.New("server: probe queue full")

// Slot carries one probe slot's reusable state: counters (and their
// compiled matchers, factorizations and memos) cached per query text,
// invalidated when the substrate epoch moves.
type Slot struct {
	epoch    uint64
	counters map[string]*repaircount.Counter
}

// Counter returns the slot's cached counter for the query text,
// rebuilding via build when absent or when the epoch moved (the
// substrate was replaced). The cache is bounded; a pathological query
// mix resets it rather than growing it.
func (sl *Slot) Counter(epoch uint64, qs string, build func(qs string) (*repaircount.Counter, error)) (*repaircount.Counter, error) {
	if sl.epoch != epoch {
		sl.counters = map[string]*repaircount.Counter{}
		sl.epoch = epoch
	}
	if c, ok := sl.counters[qs]; ok {
		return c, nil
	}
	c, err := build(qs)
	if err != nil {
		return nil, err
	}
	if len(sl.counters) >= 256 {
		sl.counters = map[string]*repaircount.Counter{}
	}
	sl.counters[qs] = c
	return c, nil
}

// Pool is a bounded probe-slot pool with an admission queue: at most
// `workers` probes run at once and at most `depth` wait; beyond that
// Acquire answers ErrOverloaded immediately.
type Pool struct {
	slots   chan *Slot
	depth   int64
	waiting atomic.Int64
}

// NewPool builds a pool of `workers` slots with a waiting queue of
// `depth`.
func NewPool(workers, depth int) *Pool {
	p := &Pool{slots: make(chan *Slot, workers), depth: int64(depth)}
	for i := 0; i < workers; i++ {
		p.slots <- &Slot{counters: map[string]*repaircount.Counter{}}
	}
	return p
}

// Acquire takes a probe slot, answering ErrOverloaded when the queue is
// full, and ctx.Err() when the deadline expires first.
func (p *Pool) Acquire(ctx context.Context) (*Slot, error) {
	select {
	case sl := <-p.slots:
		return sl, nil
	default:
	}
	if p.waiting.Add(1) > p.depth {
		p.waiting.Add(-1)
		return nil, ErrOverloaded
	}
	defer p.waiting.Add(-1)
	select {
	case sl := <-p.slots:
		return sl, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns a slot to the pool.
func (p *Pool) Release(sl *Slot) { p.slots <- sl }

// Gate admits probes: a slot from a bounded Pool, a wait queue of
// `depth` beyond which probes are refused with 503, and a wall-clock
// deadline per probe whose expiry (or the client going away) cancels
// the probe cooperatively.
type Gate struct {
	pool     *Pool
	deadline time.Duration

	probes, overloaded, expired atomic.Int64
}

// NewGate builds a gate over `workers` slots, a queue of `depth` and the
// per-probe deadline.
func NewGate(workers, depth int, deadline time.Duration) *Gate {
	return &Gate{pool: NewPool(workers, depth), deadline: deadline}
}

// Run runs fn on an acquired slot under mu's read lock with the probe
// context, answering overload and an expired wait itself.
func (g *Gate) Run(w http.ResponseWriter, r *http.Request, mu *sync.RWMutex, fn func(ctx context.Context, sl *Slot)) {
	g.probes.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), g.deadline)
	defer cancel()
	sl, err := g.pool.Acquire(ctx)
	if err != nil {
		if err == ErrOverloaded {
			g.overloaded.Add(1)
			WriteErr(w, http.StatusServiceUnavailable, APIError{Code: "overloaded",
				Message: fmt.Sprintf("%d probes already queued", g.pool.depth)})
			return
		}
		g.WriteCtxErr(w, ctx)
		return
	}
	defer g.pool.Release(sl)
	mu.RLock()
	defer mu.RUnlock()
	fn(ctx, sl)
}

// WriteCtxErr answers a probe whose context ended: 504 when the deadline
// expired, 499 when the client went away (a status it never sees).
func (g *Gate) WriteCtxErr(w http.ResponseWriter, ctx context.Context) {
	if ctx.Err() == context.DeadlineExceeded {
		g.expired.Add(1)
		WriteErr(w, http.StatusGatewayTimeout, APIError{Code: "deadline_exceeded",
			Message: fmt.Sprintf("probe exceeded the %s deadline", g.deadline)})
		return
	}
	WriteErr(w, 499, APIError{Code: "canceled", Message: "client canceled the probe"})
}

// Stats adds the gate's counters to a /v1/stats body.
func (g *Gate) Stats(body map[string]any) {
	body["probes"] = g.probes.Load()
	body["overloaded"] = g.overloaded.Load()
	body["deadline_expired"] = g.expired.Load()
}

// Health is a role's write-path health: the first write-path failure
// turns the role read-only, after which /healthz fails and /v1/stats
// reports the reason.
type Health struct{ reason atomic.Pointer[string] }

// Degrade records a write-path failure; only the first one is kept.
func (h *Health) Degrade(err error) {
	msg := err.Error()
	h.reason.CompareAndSwap(nil, &msg)
}

// Reason returns the recorded failure, or "" while healthy.
func (h *Health) Reason() string {
	if p := h.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// ServeHTTP answers /healthz.
func (h *Health) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if reason := h.Reason(); reason != "" {
		http.Error(w, "degraded: "+reason, http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// APIError is the structured error body: {"error": {"code": ..., ...}}.
// As an error value it also carries the HTTP status it is answered with.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// Admission details on budget_exceeded.
	PlannedCost string `json:"planned_cost,omitempty"`
	ExactBudget int64  `json:"exact_budget,omitempty"`
	SampleBound string `json:"sample_bound,omitempty"`
	MaxSamples  int64  `json:"max_samples,omitempty"`
}

func (e *APIError) Error() string { return e.Message }

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

// WriteErr writes a structured error response.
func WriteErr(w http.ResponseWriter, status int, e APIError) {
	WriteJSON(w, status, map[string]APIError{"error": e})
}

// badQuery answers a probe whose query is missing or does not compile.
func badQuery(w http.ResponseWriter, err error) {
	WriteErr(w, http.StatusBadRequest, APIError{Code: "bad_query", Message: err.Error()})
}

// WriteResult writes one successful probe result: the bare rendered
// value as text/plain when the request asked for format=text, the JSON
// body otherwise. An empty text form means the endpoint has no text
// rendering and always answers JSON.
func WriteResult(w http.ResponseWriter, r *http.Request, text string, body map[string]any) {
	if text != "" && r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "%s\n", text)
		return
	}
	WriteJSON(w, http.StatusOK, body)
}

// ProbeQuery extracts the query text from ?q= or a JSON {"query": ...}
// body.
func ProbeQuery(r *http.Request) (string, error) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, nil
	}
	if r.Body != nil && r.Method == http.MethodPost {
		var body struct {
			Query string `json:"query"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err == nil && body.Query != "" {
			return body.Query, nil
		}
	}
	return "", fmt.Errorf("missing query: pass ?q= or a JSON body {\"query\": ...}")
}
