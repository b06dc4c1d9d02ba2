package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"repro/internal/obsv"
	"repro/internal/overload"
)

// Router is the HTTP surface every serving role is built on: a browse
// node (Server) and the cluster coordinator mount their routes on one.
// It owns the mux, the unified-envelope 404/405 fallback under /api/,
// the metrics, healthz and readyz routes, and the middleware stack every
// route runs under, so those behave identically on every role.
type Router struct {
	mux     *http.ServeMux
	metrics *obsv.Registry
	httpm   *obsv.HTTPMetrics

	// gov, when set (WithOverload), applies per-class adaptive admission
	// control to every non-exempt route; nil serves unthrottled.
	gov *overload.Governor

	// readiness checks gate /api/v1/readyz; registered before traffic
	// starts (AddReadiness).
	readiness []readinessCheck

	// apiRoutes maps each registered API path (relative, e.g. "facets")
	// to its allowed methods, so the fallback handler can distinguish a
	// wrong method (405 + Allow) from an unknown route (404). Mutated only
	// during registration, before traffic starts.
	apiRoutes map[string][]string
}

type readinessCheck struct {
	name  string
	check func() error
}

// Option configures a Router at construction.
type Option func(*Router)

// WithMetrics records into an externally owned registry, so the HTTP
// layer, the ingester, and the segment store can share one snapshot.
// Without it the router allocates a private registry.
func WithMetrics(reg *obsv.Registry) Option {
	return func(rt *Router) { rt.metrics = reg }
}

// WithOverload enables adaptive admission control: every non-exempt
// route acquires a slot in the governor's limiter for its class before
// running, and is shed with a 429/503 + Retry-After (error code
// "overloaded") when the class is saturated. Probes (healthz, readyz)
// and metrics are exempt — an overloaded server must still be
// observable, and transient shedding must not flip readiness.
func WithOverload(gov *overload.Governor) Option {
	return func(rt *Router) { rt.gov = gov }
}

// NewRouter builds a router serving the metrics and probe routes.
func NewRouter(opts ...Option) *Router {
	rt := &Router{mux: http.NewServeMux(), apiRoutes: map[string][]string{}}
	for _, opt := range opts {
		opt(rt)
	}
	if rt.metrics == nil {
		rt.metrics = obsv.NewRegistry()
	}
	rt.httpm = obsv.NewHTTPMetrics(rt.metrics)
	// Method-less catch-alls under both API prefixes: they lose to every
	// registered method+path pattern (more specific wins), so they see
	// exactly the requests no real route claims — unknown paths and wrong
	// methods on known paths — and answer with the unified error envelope
	// instead of the mux's plain-text defaults.
	fallback := rt.wrap("api_unmatched", http.HandlerFunc(rt.handleAPIFallback))
	rt.mux.Handle("/api/", fallback)
	rt.mux.Handle("/api/v1/", fallback)
	rt.Handle(http.MethodGet, "metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, rt.metrics.Snapshot())
	})
	// healthz is the liveness probe: the process is up and serving; it
	// deliberately checks nothing else.
	rt.Handle(http.MethodGet, "healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, healthzResponse{Status: "ok"})
	})
	rt.Handle(http.MethodGet, "readyz", rt.handleReadyz)
	return rt
}

// Handle registers one API route at its canonical versioned path
// /api/v1/<path>, with its metrics label derived from the path ("/"
// becomes "_"). Routes registered here inherit the fallback 404/405
// envelope, per-route metrics and the middleware stack. Registration
// must happen before the router starts handling traffic.
func (rt *Router) Handle(method, path string, h http.HandlerFunc) {
	rt.mux.Handle(method+" /api/v1/"+path, rt.wrap(strings.ReplaceAll(path, "/", "_"), h))
	rt.apiRoutes[path] = append(rt.apiRoutes[path], method)
}

// wrap stacks the robustness middleware under the metrics wrapper:
// panic recovery outermost (a panic anywhere below becomes a 500
// envelope instead of a killed connection), then deadline-budget
// parsing (so admission and the handler both see the caller's
// deadline), then admission control for the route's class.
func (rt *Router) wrap(route string, h http.Handler) http.Handler {
	h = admission(rt.gov, classForRoute(route), h)
	h = budgetMiddleware(h)
	h = recovery(rt.metrics, h)
	return rt.httpm.Wrap(route, h)
}

// classForRoute maps a route label to its admission class. The empty
// class means exempt: probes and metrics must answer precisely when the
// server is drowning, and the API fallback only writes 404s.
func classForRoute(route string) overload.Class {
	switch route {
	case "metrics", "healthz", "readyz", "api_unmatched":
		return ""
	case "cross":
		return overload.ClassExpensive
	case "ingest", "ingest_retry":
		return overload.ClassWrite
	default:
		return overload.ClassRead
	}
}

// handleAPIFallback answers every /api/ request no registered route
// claims. A known versioned path hit with the wrong method gets 405 with
// an Allow header; anything else — including the removed unversioned
// /api/<path> aliases — gets 404. Both use the unified envelope.
func (rt *Router) handleAPIFallback(w http.ResponseWriter, r *http.Request) {
	if path, versioned := strings.CutPrefix(strings.TrimPrefix(r.URL.Path, "/api/"), "v1/"); versioned {
		if methods, ok := rt.apiRoutes[path]; ok {
			allow := append([]string(nil), methods...)
			sort.Strings(allow)
			w.Header().Set("Allow", strings.Join(allow, ", "))
			WriteError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
				fmt.Errorf("method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, strings.Join(allow, ", ")))
			return
		}
	}
	WriteError(w, http.StatusNotFound, ErrCodeNotFound,
		fmt.Errorf("unknown API route %s", r.URL.Path))
}

// AddReadiness registers a named readiness check consulted by GET
// /api/v1/readyz — typically a resilient wrapper's Ready method or a
// shard's circuit breaker, so the probe answers 503 while any
// dependency is down and recovers the moment it is back. Registration
// must happen before the router starts handling traffic.
func (rt *Router) AddReadiness(name string, check func() error) {
	rt.readiness = append(rt.readiness, readinessCheck{name: name, check: check})
}

// healthzResponse is the GET /api/v1/healthz payload.
type healthzResponse struct {
	Status string `json:"status"`
}

// readyzResponse is the 200 GET /api/v1/readyz payload; failures use
// the unified error envelope with code "not_ready" instead.
type readyzResponse struct {
	Status string            `json:"status"`
	Checks map[string]string `json:"checks,omitempty"`
}

// handleReadyz is the readiness probe: 200 while every registered
// dependency check passes, 503 (unified envelope, code not_ready) with
// the failing checks named otherwise.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	checks := make(map[string]string, len(rt.readiness))
	var failing []string
	for _, rc := range rt.readiness {
		if err := rc.check(); err != nil {
			checks[rc.name] = err.Error()
			failing = append(failing, rc.name+": "+err.Error())
		} else {
			checks[rc.name] = "ok"
		}
	}
	if len(failing) > 0 {
		WriteError(w, http.StatusServiceUnavailable, ErrCodeNotReady,
			fmt.Errorf("not ready: %s", strings.Join(failing, "; ")))
		return
	}
	WriteJSON(w, readyzResponse{Status: "ready", Checks: checks})
}

// Metrics returns the router's registry so other subsystems (ingester,
// segment store, coordinator) can record into the same /api/v1/metrics
// snapshot.
func (rt *Router) Metrics() *obsv.Registry { return rt.metrics }

// SetAccessLog starts (w != nil) or stops (w == nil) the structured
// access log, one JSON line per request; safe while serving traffic.
func (rt *Router) SetAccessLog(w io.Writer) { rt.httpm.SetAccessLog(w) }

// EnablePprof mounts the standard runtime profiling handlers under
// /debug/pprof/ (facetserve gates this behind -pprof: profiling
// endpoints leak implementation detail and cost CPU, so production
// deployments opt in explicitly).
func (rt *Router) EnablePprof() {
	rt.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	rt.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	rt.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	rt.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	rt.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}
