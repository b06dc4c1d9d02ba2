package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/remote"
	"repro/internal/resilient"
)

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/api/v1/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var resp healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Status != "ok" {
		t.Fatalf("healthz body = %s (%v)", rec.Body.String(), err)
	}
}

// TestReadyzFollowsBreaker is the acceptance scenario: /api/v1/readyz
// answers 503 while a scripted outage holds a resource's circuit open,
// and recovers once the outage clears and the half-open probes succeed.
func TestReadyzFollowsBreaker(t *testing.T) {
	s := testServer(t)
	inj := remote.NewInjector(11, remote.NewClock())
	world := resilient.Wrap(
		inj.WrapResource(mapResource{m: map[string][]string{"x": {"y"}}}),
		resilient.Config{
			MaxAttempts: 1,
			Breaker:     resilient.BreakerConfig{Threshold: 2, Cooldown: 2, Probes: 2},
			Metrics:     s.Metrics(),
		})
	s.AddReadiness(world.Name(), world.Ready)

	if rec := get(t, s, "/api/v1/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz before outage = %d: %s", rec.Code, rec.Body.String())
	}

	// Scripted outage: failing calls trip the breaker.
	inj.Down("world", -1)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := world.ContextErr(ctx, "x"); err == nil {
			t.Fatal("want outage error")
		}
	}
	rec := get(t, s, "/api/v1/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during outage = %d, want 503", rec.Code)
	}
	var envelope ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("readyz 503 is not the unified envelope: %s", rec.Body.String())
	}
	if envelope.Error.Code != ErrCodeNotReady || !strings.Contains(envelope.Error.Message, "world") {
		t.Fatalf("envelope = %+v", envelope)
	}

	// Breaker and retry metrics are visible in the metrics snapshot.
	metrics := get(t, s, "/api/v1/metrics").Body.String()
	for _, name := range []string{"resilient.world.trips", "resilient.world.breaker_state", "resilient.world.failures"} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("metrics snapshot missing %s", name)
		}
	}

	// The outage ends. Two shed calls elapse the cooldown, then two
	// half-open probes succeed and close the circuit.
	inj.Clear("world")
	for i := 0; i < 2; i++ {
		if _, err := world.ContextErr(ctx, "x"); !errors.Is(err, resilient.ErrOpen) {
			t.Fatalf("cooldown call %d: %v, want ErrOpen", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := world.ContextErr(ctx, "x"); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if rec := get(t, s, "/api/v1/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d: %s", rec.Code, rec.Body.String())
	}
}

// outageResource fails every lookup while down.
type outageResource struct {
	mapResource
	down atomic.Bool
}

func (r *outageResource) ContextErr(ctx context.Context, term string) ([]string, error) {
	if r.down.Load() {
		return nil, errors.New("world: down")
	}
	return r.m[term], nil
}

func (r *outageResource) Context(term string) []string {
	out, _ := r.ContextErr(context.Background(), term)
	return out
}

func TestDeadLetterEndpoints(t *testing.T) {
	res := &outageResource{mapResource: liveWorld()}
	ing, err := ingest.New(ingest.Config{
		Extractors: []core.Extractor{wordExtractor{}},
		Resources:  []core.Resource{res},
		Workers:    2,
		EpochDocs:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(liveDocs(3, 0), false); err != nil {
		t.Fatal(err)
	}
	s := New(ing.Current(), "dlq test")
	s.EnableIngest(ing)
	ing.Start()
	defer ing.Close(context.Background())

	// The resource goes down; a submitted document dead-letters.
	res.down.Store(true)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/ingest", ingestBody(liveDocs(1, 3))))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body.String())
	}
	deadline := time.Now().Add(10 * time.Second)
	for ing.Stats().DeadLetters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("document never dead-lettered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	rec = get(t, s, "/api/v1/ingest/deadletter")
	if rec.Code != http.StatusOK {
		t.Fatalf("deadletter = %d", rec.Code)
	}
	var dl DeadLetterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dl); err != nil {
		t.Fatal(err)
	}
	if dl.Total != 1 || len(dl.DeadLetters) != 1 || dl.DeadLetters[0].Err == "" {
		t.Fatalf("deadletter payload = %+v", dl)
	}

	// The resource recovers; the retry endpoint admits the document.
	res.down.Store(false)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/ingest/retry", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("retry = %d: %s", rec.Code, rec.Body.String())
	}
	var rr RetryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Admitted != 1 || rr.Remaining != 0 {
		t.Fatalf("retry payload = %+v", rr)
	}
	if got := ing.Stats().DocsIngested; got != 4 {
		t.Fatalf("DocsIngested after retry = %d, want 4", got)
	}
}
