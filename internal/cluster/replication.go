package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/browse"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// EpochHeader carries the leader's current epoch on every snapshot
// response (including 204s), so a replica learns how far behind it is
// without transferring a byte of payload.
const EpochHeader = "X-Snapshot-Epoch"

// Shipper is the leader side of replication: it keeps the encoded
// snapshot bytes of the most recently published epoch and serves them
// to pulling replicas. The epoch number doubles as the replication
// watermark — a replica at epoch N asks "anything newer than N?" and
// gets either the latest bytes or 204 No Content.
//
// Publish is wired as (part of) the ingester's OnPublish hook, so a
// live leader re-encodes and exposes each epoch the moment the atomic
// interface swap lands; a batch leader publishes its single build once.
type Shipper struct {
	profile string
	seed    uint64
	metrics *obsv.Registry

	cur atomic.Pointer[shippedEpoch]

	publishes *obsv.Counter
	served    *obsv.Counter
	bytesOut  *obsv.Counter
}

type shippedEpoch struct {
	epoch uint64
	data  []byte
}

// NewShipper builds a shipper; profile and seed are stamped into the
// shipped snapshots' provenance metadata. reg may be nil.
func NewShipper(profile string, seed uint64, reg *obsv.Registry) *Shipper {
	s := &Shipper{profile: profile, seed: seed, metrics: reg}
	if reg != nil {
		s.publishes = reg.Counter("cluster.ship.publishes")
		s.served = reg.Counter("cluster.ship.snapshots_served")
		s.bytesOut = reg.Counter("cluster.ship.bytes_served")
		reg.GaugeFunc("cluster.ship.epoch", func() int64 {
			if cur := s.cur.Load(); cur != nil {
				return int64(cur.epoch)
			}
			return -1
		})
	}
	return s
}

// Publish encodes the interface's serving state and makes it the
// shipped epoch. Encoding happens once per publish, not per replica
// pull. An encode failure leaves the previous epoch in place.
func (s *Shipper) Publish(iface *browse.Interface) error {
	snap := snapshot.Capture(iface, snapshot.Meta{
		Epoch: iface.Epoch(), Profile: s.profile, Seed: s.seed,
		CreatedUnixNano: time.Now().UnixNano(),
	}, nil)
	data, err := snapshot.Encode(snap)
	if err != nil {
		return fmt.Errorf("cluster: ship epoch %d: %w", iface.Epoch(), err)
	}
	s.cur.Store(&shippedEpoch{epoch: iface.Epoch(), data: data})
	if s.publishes != nil {
		s.publishes.Inc()
	}
	return nil
}

// Epoch returns the currently shipped epoch, or false before the first
// publish.
func (s *Shipper) Epoch() (uint64, bool) {
	if cur := s.cur.Load(); cur != nil {
		return cur.epoch, true
	}
	return 0, false
}

// Register mounts the replication endpoint on a serve.Server:
//
//	GET /api/v1/cluster/snapshot[?since=<epoch>]
//
// 200 with the snapshot bytes when the shipped epoch is newer than
// since (or since is absent), 204 with only the epoch header when the
// replica is already current, 503 before the first publish. Like
// EnableIngest, Register must run before traffic starts.
func (s *Shipper) Register(srv *serve.Server) {
	srv.Handle(http.MethodGet, "cluster/snapshot", s.handleSnapshot)
}

func (s *Shipper) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	cur := s.cur.Load()
	if cur == nil {
		serve.WriteError(w, http.StatusServiceUnavailable, serve.ErrCodeUnavailable,
			fmt.Errorf("no snapshot published yet"))
		return
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(cur.epoch, 10))
	if raw := r.URL.Query().Get("since"); raw != "" {
		since, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, serve.ErrCodeBadRequest,
				fmt.Errorf("bad since %q (want a non-negative epoch number)", raw))
			return
		}
		if cur.epoch <= since {
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(cur.data)))
	_, _ = w.Write(cur.data)
	if s.served != nil {
		s.served.Inc()
		s.bytesOut.Add(int64(len(cur.data)))
	}
}

// ReplicaConfig parameterizes a Replica.
type ReplicaConfig struct {
	// LeaderURL is the leader's base URL (no trailing slash).
	LeaderURL string
	// Client fetches snapshots; nil selects http.DefaultClient.
	Client *http.Client
	// Timeout bounds one pull (connect + transfer). 0 selects 30s —
	// snapshots are whole-corpus payloads, not pings.
	Timeout time.Duration
	// MaxLagEpochs is the replication lag (leader epoch minus applied
	// epoch) at which readyz starts failing. 0 selects 1: a replica one
	// epoch behind mid-transfer is still ready, two behind is not.
	MaxLagEpochs uint64
	// Metrics, when set, receives cluster.replica.lag (the watermark
	// gauge), cluster.replica.applied_epoch, and counters for applied
	// snapshots and poll errors. May be nil.
	Metrics *obsv.Registry
	// Logf, when set, receives one line per applied epoch and per poll
	// error.
	Logf func(format string, args ...any)
}

// Replica is the stateless read side of replication: it pulls the
// leader's snapshot endpoint with its applied epoch as the watermark,
// decodes any newer snapshot, and publishes the rehydrated interface
// through the same atomic swap live ingestion uses. It holds no durable
// state — a restarted replica simply pulls the latest snapshot again.
type Replica struct {
	cfg     ReplicaConfig
	publish func(*browse.Interface)

	applied atomic.Int64 // applied epoch; -1 before the first snapshot
	lag     atomic.Int64 // leader epoch - applied epoch; -1 while unknown

	appliedCount *obsv.Counter
	pollErrors   *obsv.Counter
	bytesIn      *obsv.Counter
}

// NewReplica builds a replica that hands each applied interface to
// publish (typically serve.Server.Publish).
func NewReplica(cfg ReplicaConfig, publish func(*browse.Interface)) (*Replica, error) {
	if cfg.LeaderURL == "" {
		return nil, fmt.Errorf("cluster: replica needs a leader URL")
	}
	if publish == nil {
		return nil, fmt.Errorf("cluster: replica needs a publish hook")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxLagEpochs == 0 {
		cfg.MaxLagEpochs = 1
	}
	r := &Replica{cfg: cfg, publish: publish}
	r.applied.Store(-1)
	r.lag.Store(-1)
	if reg := cfg.Metrics; reg != nil {
		r.appliedCount = reg.Counter("cluster.replica.snapshots_applied")
		r.pollErrors = reg.Counter("cluster.replica.poll_errors")
		r.bytesIn = reg.Counter("cluster.replica.bytes_fetched")
		reg.GaugeFunc("cluster.replica.applied_epoch", r.applied.Load)
		reg.GaugeFunc("cluster.replica.lag", r.lag.Load)
	}
	return r, nil
}

// AppliedEpoch returns the last applied epoch, or false before the
// first snapshot lands.
func (r *Replica) AppliedEpoch() (uint64, bool) {
	e := r.applied.Load()
	if e < 0 {
		return 0, false
	}
	return uint64(e), true
}

// Lag returns the last observed replication lag in epochs (leader
// epoch minus applied epoch), or false while it is unknown (no
// successful poll yet).
func (r *Replica) Lag() (uint64, bool) {
	l := r.lag.Load()
	if l < 0 {
		return 0, false
	}
	return uint64(l), true
}

// Ready is the replica's readiness check for /api/v1/readyz: an error
// until the first snapshot is applied, and again when the observed
// replication lag exceeds MaxLagEpochs.
func (r *Replica) Ready() error {
	if _, ok := r.AppliedEpoch(); !ok {
		return fmt.Errorf("no snapshot applied yet")
	}
	if lag, ok := r.Lag(); ok && lag > r.cfg.MaxLagEpochs {
		return fmt.Errorf("replication lag %d epochs (max %d)", lag, r.cfg.MaxLagEpochs)
	}
	return nil
}

// Poll runs one replication cycle: ask the leader for anything newer
// than the applied epoch, and decode + publish it if there is. It
// returns the applied epoch and whether a new snapshot was applied.
func (r *Replica) Poll(ctx context.Context) (uint64, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	url := r.cfg.LeaderURL + "/api/v1/cluster/snapshot"
	applied, haveApplied := r.AppliedEpoch()
	if haveApplied {
		url += "?since=" + strconv.FormatUint(applied, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, false, r.pollErr(err)
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return 0, false, r.pollErr(err)
	}
	defer resp.Body.Close()
	leaderEpoch, haveLeader := headerEpoch(resp.Header)
	switch resp.StatusCode {
	case http.StatusNoContent:
		if haveLeader && haveApplied {
			r.lag.Store(int64(leaderEpoch) - int64(applied))
		}
		return applied, false, nil
	case http.StatusOK:
		// fall through to apply
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return 0, false, r.pollErr(fmt.Errorf("leader answered HTTP %d: %s", resp.StatusCode, body))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err != nil {
		return 0, false, r.pollErr(err)
	}
	if r.bytesIn != nil {
		r.bytesIn.Add(int64(len(data)))
	}
	// Cheap watermark check first: if the wire handed us an epoch we
	// already applied (a stale cache, a leader restart), skip the full
	// decode entirely.
	epoch, err := snapshot.PeekEpoch(data)
	if err != nil {
		return 0, false, r.pollErr(fmt.Errorf("peek shipped snapshot: %w", err))
	}
	if haveApplied && epoch <= applied {
		return applied, false, nil
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return 0, false, r.pollErr(fmt.Errorf("decode shipped snapshot: %w", err))
	}
	iface, err := snap.BrowseInterface()
	if err != nil {
		return 0, false, r.pollErr(err)
	}
	if r.cfg.Metrics != nil {
		iface.SetMetrics(r.cfg.Metrics)
	}
	r.publish(iface)
	r.applied.Store(int64(epoch))
	if haveLeader {
		r.lag.Store(int64(leaderEpoch) - int64(epoch))
	} else {
		r.lag.Store(0)
	}
	if r.appliedCount != nil {
		r.appliedCount.Inc()
	}
	if r.cfg.Logf != nil {
		r.cfg.Logf("replica: applied epoch %d (%d docs, %d bytes)", epoch, len(snap.Docs), len(data))
	}
	return epoch, true, nil
}

func (r *Replica) pollErr(err error) error {
	if r.pollErrors != nil {
		r.pollErrors.Inc()
	}
	if r.cfg.Logf != nil {
		r.cfg.Logf("replica: poll: %v", err)
	}
	return err
}

// Run polls until ctx is cancelled, sleeping interval between cycles.
// Errors are counted and logged but never fatal — replication is a
// retry loop by nature.
func (r *Replica) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		_, _, _ = r.Poll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// WaitSynced blocks until the replica has applied its first snapshot
// (polling at interval), the context ends, or timeout elapses.
func (r *Replica) WaitSynced(ctx context.Context, interval, timeout time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		if _, _, err := r.Poll(ctx); err == nil {
			if _, ok := r.AppliedEpoch(); ok {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if timeout > 0 && time.Now().After(deadline) {
			return fmt.Errorf("cluster: replica not synced after %v", timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
	}
}

// headerEpoch parses the leader's epoch header.
func headerEpoch(h http.Header) (uint64, bool) {
	raw := h.Get(EpochHeader)
	if raw == "" {
		return 0, false
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
