package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obsv"
	"repro/internal/overload"
)

// tinyGovernor admits exactly one request per class with no wait queue,
// so a held slot sheds the next arrival instantly and deterministically.
func tinyGovernor(reg *obsv.Registry) *overload.Governor {
	one := overload.Config{InitialLimit: 1, MaxLimit: 1, Queue: -1}
	return overload.NewGovernor(overload.GovernorConfig{Read: one, Expensive: one, Write: one, Metrics: reg})
}

// holdSlot saturates one class and returns its release.
func holdSlot(t *testing.T, gov *overload.Governor, class overload.Class) func() {
	t.Helper()
	release, err := gov.Acquire(context.Background(), class)
	if err != nil {
		t.Fatalf("acquire %s: %v", class, err)
	}
	return func() { release(0) }
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", rec.Body.String(), err)
	}
	return er
}

// TestShedPaths saturates each admission class and asserts the shed
// response contract: the class-appropriate status (503 for reads and
// expensive cross-tabs, 429 for writes), a Retry-After header of at
// least one second, and the unified envelope with code "overloaded" —
// while the exempt probe and metrics routes keep answering 200 so
// transient shedding never flips readiness.
func TestShedPaths(t *testing.T) {
	reg := obsv.NewRegistry()
	gov := tinyGovernor(reg)
	ing := liveIngester(t, 100, nil)
	if err := ing.Bootstrap(liveDocs(3, 0), false); err != nil {
		t.Fatal(err)
	}
	s := New(ing.Current(), "shed test", WithMetrics(reg), WithOverload(gov))
	s.EnableIngest(ing)

	for _, class := range overload.Classes {
		defer holdSlot(t, gov, class)()
	}

	cases := []struct {
		name       string
		method     string
		path       string
		class      overload.Class
		wantStatus int
	}{
		{"facets read", http.MethodGet, "/api/v1/facets", overload.ClassRead, http.StatusServiceUnavailable},
		{"docs read", http.MethodGet, "/api/v1/docs?limit=5", overload.ClassRead, http.StatusServiceUnavailable},
		{"dates read", http.MethodGet, "/api/v1/dates?granularity=day", overload.ClassRead, http.StatusServiceUnavailable},
		{"cross expensive", http.MethodGet, "/api/v1/cross?a=france&b=germany", overload.ClassExpensive, http.StatusServiceUnavailable},
		{"ingest write", http.MethodPost, "/api/v1/ingest", overload.ClassWrite, http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Errorf("Retry-After %q, want an integer >= 1", rec.Header().Get("Retry-After"))
			}
			if er := decodeEnvelope(t, rec); er.Error.Code != ErrCodeOverloaded || er.Error.Message == "" {
				t.Errorf("envelope %+v, want code %q", er, ErrCodeOverloaded)
			}
			if shedStatus(tc.class) != tc.wantStatus {
				t.Errorf("shedStatus(%s) = %d, want %d", tc.class, shedStatus(tc.class), tc.wantStatus)
			}
		})
	}

	// Probes and metrics are exempt: an overloaded node must stay
	// observable and must NOT report unready from shedding alone.
	for _, path := range []string{"/api/v1/healthz", "/api/v1/readyz", "/api/v1/metrics"} {
		if rec := get(t, s, path); rec.Code != http.StatusOK {
			t.Errorf("%s during saturation: status %d, want 200", path, rec.Code)
		}
	}

	snap := reg.Snapshot()
	if snap.Counters["overload.read.shed"] < 3 {
		t.Errorf("overload.read.shed = %d, want >= 3", snap.Counters["overload.read.shed"])
	}
	if snap.Counters["overload.expensive.shed"] < 1 || snap.Counters["overload.write.shed"] < 1 {
		t.Errorf("shed counters: %+v", snap.Counters)
	}
}

// TestShedReleaseRestoresService proves shedding is transient: once the
// held slot releases, the same routes answer 200 again.
func TestShedReleaseRestoresService(t *testing.T) {
	reg := obsv.NewRegistry()
	gov := tinyGovernor(reg)
	s := testServer(t, WithMetrics(reg), WithOverload(gov))
	release := holdSlot(t, gov, overload.ClassRead)
	if rec := get(t, s, "/api/v1/facets"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated status %d, want 503", rec.Code)
	}
	release()
	if rec := get(t, s, "/api/v1/facets"); rec.Code != http.StatusOK {
		t.Fatalf("post-release status %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// TestPanicRecovery: a panicking handler becomes a 500 with the unified
// envelope (code "internal"), the http.panics counter increments, and
// the server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	reg := obsv.NewRegistry()
	s := testServer(t, WithMetrics(reg))
	s.Handle("GET", "boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := get(t, s, "/api/v1/boom")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if er := decodeEnvelope(t, rec); er.Error.Code != ErrCodeInternal {
		t.Fatalf("envelope %+v, want code %q", er, ErrCodeInternal)
	}
	if n := reg.Snapshot().Counters["http.panics"]; n != 1 {
		t.Fatalf("http.panics = %d, want 1", n)
	}
	if rec := get(t, s, "/api/v1/facets"); rec.Code != http.StatusOK {
		t.Fatalf("server dead after panic: status %d", rec.Code)
	}
}

// TestBudgetHeader: malformed, non-positive, and oversized deadline
// budgets are 400s with the envelope; valid forms pass through.
func TestBudgetHeader(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		budget string
		want   int
	}{
		{"250ms", http.StatusOK},
		{"1.5s", http.StatusOK},
		{"250", http.StatusOK}, // bare integer = milliseconds
		{"bogus", http.StatusBadRequest},
		{"-5ms", http.StatusBadRequest},
		{"0", http.StatusBadRequest},
		{"11m", http.StatusBadRequest}, // above MaxBudget
		{"99999999999999999999", http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/facets", nil)
		req.Header.Set(overload.BudgetHeader, tc.budget)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("budget %q: status %d, want %d", tc.budget, rec.Code, tc.want)
		}
		if tc.want == http.StatusBadRequest {
			if er := decodeEnvelope(t, rec); er.Error.Code != ErrCodeBadRequest {
				t.Errorf("budget %q: envelope code %q, want %q", tc.budget, er.Error.Code, ErrCodeBadRequest)
			}
		}
	}
}

// TestIngestQueueFull429: a saturated intake queue maps to 429 +
// Retry-After with the overloaded envelope, and the rejection shows up
// in ingest.queue_rejections.
func TestIngestQueueFull429(t *testing.T) {
	ing, err := ingest.New(ingest.Config{
		Extractors: []core.Extractor{wordExtractor{}},
		Resources:  []core.Resource{liveWorld()},
		QueueSize:  1,
		EpochDocs:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(liveDocs(3, 0), false); err != nil {
		t.Fatal(err)
	}
	// The ingester is never Started, so the queue never drains: the first
	// submitted document fills it and the second must be rejected.
	reg := obsv.NewRegistry()
	s := New(ing.Current(), "queue full", WithMetrics(reg))
	s.EnableIngest(ing)

	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", ingestBody(liveDocs(2, 3)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("missing Retry-After on queue-full 429")
	}
	er := decodeEnvelope(t, rec)
	if er.Error.Code != ErrCodeOverloaded || !strings.Contains(er.Error.Message, "accepted 1 of 2") {
		t.Errorf("envelope %+v, want overloaded with partial-accept count", er)
	}
	if n := reg.Snapshot().Gauges["ingest.queue_rejections"]; n < 1 {
		t.Errorf("ingest.queue_rejections = %d, want >= 1", n)
	}
}

// TestOverloadDifferential is the correctness guarantee under pressure:
// with a deliberately tiny limit and concurrent clients hammering the
// API, every ADMITTED response must be byte-identical to the same
// query against an unloaded server — shedding may reject work but must
// never corrupt it — and the latency of admitted requests stays
// bounded because excess load never queues behind the limit.
func TestOverloadDifferential(t *testing.T) {
	paths := []string{
		"/api/v1/facets",
		"/api/v1/facets?terms=europe&parent=europe",
		"/api/v1/docs?terms=france&limit=10",
		"/api/v1/dates?granularity=day",
		"/api/v1/cross?a=europe&b=sports",
	}
	unloaded := testServer(t)
	want := make(map[string]string, len(paths))
	for _, p := range paths {
		rec := get(t, unloaded, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("baseline %s: status %d", p, rec.Code)
		}
		want[p] = rec.Body.String()
	}

	for _, clients := range []int{1, 8} {
		t.Run("clients="+strconv.Itoa(clients), func(t *testing.T) {
			reg := obsv.NewRegistry()
			gov := tinyGovernor(reg)
			s := testServer(t, WithMetrics(reg), WithOverload(gov))
			const perClient = 200
			var (
				mu       sync.Mutex
				admitted int
				shed     int
				lats     []time.Duration
			)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						p := paths[(c+i)%len(paths)]
						req := httptest.NewRequest(http.MethodGet, p, nil)
						req.Header.Set(overload.BudgetHeader, "5s")
						rec := httptest.NewRecorder()
						start := time.Now()
						s.ServeHTTP(rec, req)
						el := time.Since(start)
						mu.Lock()
						switch rec.Code {
						case http.StatusOK:
							admitted++
							lats = append(lats, el)
							if rec.Body.String() != want[p] {
								t.Errorf("%s: admitted response differs from unloaded server", p)
							}
						case http.StatusServiceUnavailable:
							shed++
							if rec.Header().Get("Retry-After") == "" {
								t.Errorf("%s: shed without Retry-After", p)
							}
						default:
							t.Errorf("%s: unexpected status %d", p, rec.Code)
						}
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			if admitted == 0 {
				t.Fatal("no requests admitted")
			}
			if clients == 1 && shed != 0 {
				t.Errorf("single closed-loop client shed %d times; limit 1 should admit all", shed)
			}
			t.Logf("clients=%d: admitted %d, shed %d", clients, admitted, shed)
			// Concurrent overlap on the tiny limit is scheduling-dependent,
			// so force one shed deterministically and assert it is
			// well-formed rather than betting on the race above.
			release := holdSlot(t, gov, overload.ClassRead)
			rec := get(t, s, "/api/v1/facets")
			release()
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("saturated status %d, want 503", rec.Code)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Error("shed without Retry-After")
			}
			if er := decodeEnvelope(t, rec); er.Error.Code != ErrCodeOverloaded {
				t.Errorf("shed envelope code %q, want %q", er.Error.Code, ErrCodeOverloaded)
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			// Loose bound: admitted requests answer promptly even under 8x
			// concurrency because contenders are shed, not queued.
			if p99 := lats[len(lats)*99/100]; p99 > 2*time.Second {
				t.Errorf("admitted p99 = %v, want < 2s", p99)
			}
		})
	}
}
