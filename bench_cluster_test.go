package facet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// benchTopology stands up an in-process scatter-gather cluster over the
// benchmark interface: n shard servers plus a coordinator.
func benchTopology(b *testing.B, n int) (coordinator *httptest.Server, cleanup func()) {
	b.Helper()
	iface := benchInterface(b)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		b.Fatal(err)
	}
	var servers []*httptest.Server
	var peers []cluster.Peer
	for _, name := range names {
		sh, err := cluster.BuildShard(iface, ring, name)
		if err != nil {
			b.Fatal(err)
		}
		srv := serve.New(sh.Interface(), name)
		sh.Register(srv)
		ts := httptest.NewServer(srv)
		servers = append(servers, ts)
		peers = append(peers, cluster.Peer{Name: name, BaseURL: ts.URL})
	}
	coord, err := cluster.NewCoordinator(peers, cluster.Config{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord)
	servers = append(servers, coordSrv)
	return coordSrv, func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
}

// BenchmarkClusterFanout measures end-to-end scatter-gather latency —
// coordinator HTTP in, N parallel shard sub-queries, count merge, HTTP
// out — at 1, 2, and 4 shards. On a single-machine loopback topology
// wider fan-out mostly adds merge and HTTP overhead; the point of the
// curve is to price that overhead, which is what a deployment trades for
// per-shard corpus capacity.
func BenchmarkClusterFanout(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards_%d", n), func(b *testing.B) {
			coord, cleanup := benchTopology(b, n)
			defer cleanup()
			client := coord.Client()
			url := coord.URL + "/api/v1/facets"
			// One warm-up request primes every shard's query cache, so the
			// loop measures fan-out + merge, not posting-list work.
			if err := benchGet(client, url); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := benchGet(client, url); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

func benchGet(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return nil
}
