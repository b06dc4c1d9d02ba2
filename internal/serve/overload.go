package serve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/obsv"
	"repro/internal/overload"
)

// Stable machine-readable error codes added by the overload layer.
const (
	// ErrCodeOverloaded marks a request shed by admission control or a
	// spent deadline budget — the server is healthy but out of
	// capacity, distinct from not_ready (a dependency is down).
	ErrCodeOverloaded = "overloaded"
	// ErrCodeInternal marks a recovered handler panic.
	ErrCodeInternal = "internal"
)

// WriteShed writes one shed response: Retry-After plus the unified
// envelope with code "overloaded". Reads shed with 503 (the server is
// momentarily out of capacity); writes shed with 429 (the producer
// should slow down).
func WriteShed(w http.ResponseWriter, status, retryAfterSeconds int, err error) {
	if retryAfterSeconds < 1 {
		retryAfterSeconds = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	WriteError(w, status, ErrCodeOverloaded, err)
}

// shedStatus returns the HTTP status a shed request of the given class
// answers with.
func shedStatus(class overload.Class) int {
	if class == overload.ClassWrite {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// admission wraps next with the governor's admission control for one
// class. A nil governor or empty class is a no-op. The handler's
// observed service time is the latency sample driving the class's AIMD
// limit.
func admission(gov *overload.Governor, class overload.Class, next http.Handler) http.Handler {
	if gov == nil || class == "" {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := gov.Acquire(r.Context(), class)
		if err != nil {
			WriteShed(w, shedStatus(class), gov.RetryAfterSeconds(class), err)
			return
		}
		start := time.Now()
		defer func() { release(time.Since(start)) }()
		next.ServeHTTP(w, r)
	})
}

// budgetMiddleware parses the X-Deadline-Budget request header into a
// context deadline, so every layer below — admission queues, ingest
// submission, coordinator fan-out — inherits the caller's remaining
// latency budget. A malformed budget is a 400; an absent one changes
// nothing.
func budgetMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.Header.Get(overload.BudgetHeader)
		if raw == "" {
			next.ServeHTTP(w, r)
			return
		}
		budget, err := overload.ParseBudget(raw)
		if err != nil {
			badRequest(w, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// RemainingBudget reports how much of the request's deadline budget is
// left (false when the request carries no deadline). The coordinator
// uses it to shed before fanning out and to decrement the budget its
// shard sub-requests inherit.
func RemainingBudget(ctx context.Context) (time.Duration, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(dl), true
}

// recovery wraps next with a panic recovery barrier: the stack is
// logged, the http.panics counter incremented, and the client gets a
// 500 with the unified envelope instead of a severed connection. It
// sits inside the metrics wrapper, so the 500 still lands in the
// route's status counters.
func recovery(reg *obsv.Registry, next http.Handler) http.Handler {
	var panics *obsv.Counter
	if reg != nil {
		panics = reg.Counter("http.panics")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if panics != nil {
				panics.Inc()
			}
			stack := strings.TrimSpace(string(debug.Stack()))
			log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, stack)
			// Best effort: if the handler already wrote a status line the
			// envelope below lands mid-body, but the connection survives
			// either way.
			WriteError(w, http.StatusInternalServerError, ErrCodeInternal,
				fmt.Errorf("internal error serving %s", r.URL.Path))
		}()
		next.ServeHTTP(w, r)
	})
}
