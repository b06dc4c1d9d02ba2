package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	facet "repro"
	"repro/internal/obsv"
	"repro/internal/overload"
	"repro/internal/serve"
)

// overloadReport drives a closed-loop capacity estimate and then
// synthetic open-loop load at 1x/3x/10x of that estimate against an
// in-process server running adaptive admission control. The route under
// test burns a fixed synthetic service cost per request, so capacity is
// known by construction (limit / cost) and the report shows whether the
// limiter holds it: goodput should stay near capacity at every
// multiplier while the excess is shed as well-formed 429/503 responses
// and the latency of ADMITTED requests stays bounded — the defining
// property of admission control (without it, 10x offered load drags
// every response down together).
func overloadReport(w io.Writer, seed uint64) error {
	const (
		serviceCost = 10 * time.Millisecond // synthetic per-request work
		initLimit   = 4
		maxLimit    = 8
		queueLen    = 8
		phaseDur    = 800 * time.Millisecond
		budget      = "250ms" // X-Deadline-Budget on every request
	)

	// A real serving stack, not a mock: corpus -> pipeline -> browse
	// engine -> serve.Server, with a deliberately small read limit so the
	// harness saturates at a load a laptop can generate.
	env, err := facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: seed})
	if err != nil {
		return err
	}
	docs, err := env.GenerateNewsCorpus("SNYT", 120, seed+1)
	if err != nil {
		return err
	}
	sys, err := facet.NewSystem(env, facet.Options{TopK: 60})
	if err != nil {
		return err
	}
	for _, d := range docs {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		return err
	}
	h, err := res.BuildHierarchy()
	if err != nil {
		return err
	}
	iface, err := res.BrowseEngine(h)
	if err != nil {
		return err
	}
	reg := obsv.NewRegistry()
	gov := overload.NewGovernor(overload.GovernorConfig{
		Read:    overload.Config{InitialLimit: initLimit, MaxLimit: maxLimit, Queue: queueLen},
		Metrics: reg,
	})
	srv := serve.New(iface, "overload harness", serve.WithMetrics(reg), serve.WithOverload(gov))
	srv.Handle("GET", "work", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(serviceCost) // the synthetic service cost, inside admission
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})

	do := func(withBudget bool) (code int, latency time.Duration) {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/work", nil)
		if withBudget {
			req.Header.Set(overload.BudgetHeader, budget)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		return rec.Code, time.Since(start)
	}

	// Closed-loop calibration: initLimit workers issuing back-to-back
	// requests never overrun the initial limit, so the measured
	// throughput IS the un-shed capacity at that limit.
	const calN = 200
	var wg sync.WaitGroup
	calStart := time.Now()
	for i := 0; i < initLimit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calN/initLimit; j++ {
				do(false)
			}
		}()
	}
	wg.Wait()
	capacity := float64(calN) / time.Since(calStart).Seconds()
	fmt.Fprintf(w, "route: GET /api/v1/work, synthetic service cost %v\n", serviceCost)
	fmt.Fprintf(w, "admission: class=read InitialLimit=%d MaxLimit=%d Queue=%d, budget header %s\n",
		initLimit, maxLimit, queueLen, budget)
	fmt.Fprintf(w, "calibrated capacity (closed loop, %d workers): %.0f req/s\n\n", initLimit, capacity)

	type phase struct {
		mult              float64
		offered, admitted int
		shed, other       int
		goodput           float64
		p50, p99          time.Duration
		limit             int64
	}
	runPhase := func(mult float64) phase {
		rate := capacity * mult
		n := int(rate * phaseDur.Seconds())
		interval := time.Duration(float64(time.Second) / rate)
		var mu sync.Mutex
		var lat []time.Duration
		p := phase{mult: mult, offered: n}
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			// Open-loop pacing off the phase start: a slow sleep tick never
			// lowers the offered rate, it just bursts the backlog.
			if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, el := do(true)
				mu.Lock()
				defer mu.Unlock()
				switch code {
				case http.StatusOK:
					p.admitted++
					lat = append(lat, el)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					p.shed++
				default:
					p.other++
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		p.goodput = float64(p.admitted) / elapsed.Seconds()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if len(lat) > 0 {
			p.p50 = lat[len(lat)/2]
			p.p99 = lat[len(lat)*99/100]
		}
		p.limit = reg.Snapshot().Gauges["overload.read.limit"]
		return p
	}

	phases := []phase{}
	for _, mult := range []float64{1, 3, 10} {
		phases = append(phases, runPhase(mult))
	}

	fmt.Fprintf(w, "%-5s  %8s  %9s  %6s  %6s  %10s  %9s  %9s  %6s\n",
		"load", "offered", "admitted", "shed", "other", "goodput/s", "p50", "p99", "limit")
	for _, p := range phases {
		fmt.Fprintf(w, "%3.0fx  %8d  %9d  %6d  %6d  %10.0f  %9v  %9v  %6d\n",
			p.mult, p.offered, p.admitted, p.shed, p.other, p.goodput,
			p.p50.Round(100*time.Microsecond), p.p99.Round(100*time.Microsecond), p.limit)
	}

	snap := reg.Snapshot()
	fmt.Fprintf(w, "\ngovernor counters: admitted=%d shed=%d queued=%d (final limit %d, inflight %d)\n",
		snap.Counters["overload.read.admitted"], snap.Counters["overload.read.shed"],
		snap.Counters["overload.read.queued"], snap.Gauges["overload.read.limit"],
		snap.Gauges["overload.read.inflight"])
	fmt.Fprintln(w, "\ngoodput/s: admitted requests per second — should hold near calibrated capacity at")
	fmt.Fprintln(w, "every multiplier; p50/p99 are latencies of ADMITTED requests only and stay bounded")
	fmt.Fprintln(w, "because excess load is shed at the door (429/503 + Retry-After) instead of queuing.")
	g1, g10 := phases[0].goodput, phases[2].goodput
	if g1 > 0 {
		fmt.Fprintf(w, "goodput at 10x vs 1x: %.0f%%\n", 100*g10/g1)
	}
	return nil
}
