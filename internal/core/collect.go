package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/trustedcells/tcq/internal/detrand"
	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// The collection phase connects TDSs one by one (in random order, as
// devices come online) until the fleet is exhausted or the SIZE clause is
// satisfied. Simulated time advances by ConnectionInterval between
// successive connections, so a SIZE ... DURATION window genuinely bounds
// how much of the fleet gets to answer. Personal-querybox posts are only
// offered to their targets.
//
// The walk is one ordered sequence of connections, and every deposit
// commits through commitDeposit in that order, so the SSI's view — and
// every metric, ledger entry and trace event derived from it — is a pure
// function of the request and the seeds. Devices a torn key rollout left
// on the wrong epoch get one retried connection each after the walk, in
// their original order, through the same commit path.
//
// Fault plans ride the same walk: a Behavior depends only on (fault seed,
// device ID, query ID). Offline devices are filtered out before the walk;
// dropped and corrupt deposits consume a connection slot (the device did
// connect) and advance the clock by the device's interval, while collect
// errors keep the legacy semantics of never having connected at all.
//
// Every eligible device lands in exactly one terminal bucket of Metrics —
// deposited, offline, dropped, corrupt, rejected, collect error or not
// reached — and collectionPhase checks that account after every walk.

// deviceRng seeds the per-device collection RNG. The seed depends only on
// (engine seed, device ID, query ID) — never on connection order or wall
// time — so a retried connection draws exactly what the first one would.
func (e *Engine) deviceRng(t *tds.TDS, post *protocol.QueryPost) *rand.Rand {
	return rand.New(rand.NewSource(e.cfg.Seed ^ int64(detrand.FNV1a(t.ID)) ^ int64(detrand.FNV1a(post.ID))))
}

// collectOne runs one device's collection step at the given simulated
// clock, with its deterministic per-device RNG.
func (e *Engine) collectOne(t *tds.TDS, post *protocol.QueryPost,
	cfgTpl tds.CollectConfig, now time.Time) ([]protocol.WireTuple, tds.CollectStats, error) {
	cfg := cfgTpl
	cfg.Now = now
	cfg.Rng = e.deviceRng(t, post)
	return t.Collect(post, cfg)
}

// collectDevice is one eligible, non-offline device with its scripted
// behavior for this query. In a packed fleet t stays nil until the walk
// reaches the device; everything decided before that instant — slot
// order, fault behavior, trace identity — needs only the ID.
type collectDevice struct {
	slot int
	id   string
	b    faultplan.Behavior
	t    *tds.TDS // nil for a packed slot that has not been materialized
}

// step is the simulated time this device's connection slot occupies: the
// base interval, inflated for scripted-slow devices.
func (d collectDevice) step(interval time.Duration) time.Duration {
	if d.b.SlowFactor == 1 {
		return interval
	}
	return time.Duration(float64(interval) * d.b.SlowFactor)
}

// collectionPhase drives the collection phase of one query and settles the
// coverage account: how much of the eligible fleet the covering result
// represents, and whether that clears the fault plan's floor. The
// simulated clock advances to the instant the walk ended.
func (e *Engine) collectionPhase(ctx context.Context, rs *runState, cfgTpl tds.CollectConfig) error {
	post, metrics, faults := rs.post, rs.metrics, rs.faults
	start := rs.clock.Now()
	order := rs.rng.Perm(len(e.fleet))
	devices := make([]collectDevice, 0, len(order))
	for _, idx := range order {
		id := e.deviceID(idx)
		if !post.TargetedTo(id) {
			continue
		}
		metrics.EligibleDevices++
		b := faults.For(id, post.ID)
		if b.Offline {
			// An offline window covering the query: the device never
			// connects, so it occupies no connection slot at all. The
			// engine knows its fault script hit; the SSI never saw it.
			metrics.OfflineDevices++
			if e.sampled(id) {
				e.obs.tracer.EngineEvent(post.ID, "fault-"+b.Label(), id, start, obs.CipherFacts{})
			}
			e.obs.devices.With("offline").Inc()
			continue
		}
		devices = append(devices, collectDevice{slot: idx, id: id, b: b, t: e.deviceAt(idx)})
	}

	if r := e.cfg.TraceSampleRate; r > 0 && r < 1 {
		rs.roll = &collectRollup{}
	}

	end, err := e.collectSequential(ctx, rs, cfgTpl, devices, start)
	if err != nil {
		return err
	}
	// Devices a torn rollout caught on the wrong epoch get one retried
	// connection each, after the walk, in their original order.
	end, err = e.retryStaleDevices(ctx, rs, cfgTpl, end)
	if err != nil {
		return err
	}
	e.flushRollup(rs, end)
	rs.clock.AdvanceTo(end)
	if metrics.accountingGap() != 0 {
		e.obs.accounting.Inc()
	}

	if metrics.EligibleDevices > 0 {
		metrics.CoverageRatio = float64(metrics.DepositedDevices) / float64(metrics.EligibleDevices)
		if faults != nil && faults.CoverageFloor > 0 && metrics.CoverageRatio < faults.CoverageFloor {
			return fmt.Errorf("%w: %.3f of the eligible fleet deposited, floor is %.3f",
				ErrCoverageBelowFloor, metrics.CoverageRatio, faults.CoverageFloor)
		}
	}
	return nil
}

// commitDeposit seals one device's tuples in an envelope, applies the
// scripted transport corruption, and commits it through the SSI's
// churn-aware path, folding the outcome into the metrics. The envelope
// carries the epoch the device actually committed under — during a
// rotation grace window that may be the previous epoch, which the SSI's
// grace policy admits. Each envelope that reaches the SSI is one tick of
// the scripted-rotation trigger clock: commits happen strictly in
// connection order, so a rotation scripted "after N deposits" strikes the
// same logical instant on every run. It returns whether the deposit
// completed the collection.
func (e *Engine) commitDeposit(rs *runState, d collectDevice,
	tuples []protocol.WireTuple, stats tds.CollectStats, now time.Time, attempt int) (bool, error) {
	epoch := d.t.Epoch()
	if epoch == 0 {
		epoch = rs.post.Epoch
	}
	rs.slab.Grow(1)
	dep := rs.slab.New(rs.post.ID, d.id, attempt, epoch, tuples)
	dep.Commit = d.t.CommitDeposit(rs.post, attempt, tuples)
	if d.b.CorruptDeposit {
		dep.Sum ^= 0x1 // one flipped transport bit; the checksum catches it
	}
	accepted, done, err := rs.ssi.DepositEnvelope(rs.post.ID, dep, now)
	if err != nil {
		if errors.Is(err, ssi.ErrCorruptDeposit) || errors.Is(err, ssi.ErrStaleDeposit) ||
			errors.Is(err, ssi.ErrRevokedDeposit) {
			e.recordRejected(rs, d, now, err, attempt)
			if rerr := e.scriptedRotation(rs, now); rerr != nil {
				return done, rerr
			}
			return done, nil
		}
		return false, err
	}
	e.acceptDeposit(rs, d, accepted, tuples, dep.Commit, stats, now, epoch, attempt)
	if rerr := e.scriptedRotation(rs, now); rerr != nil {
		return done, rerr
	}
	return done, nil
}

// acceptDeposit folds one accepted deposit into the metrics, the trace,
// the registry, and the verification records. The byte volume billed is
// the envelope's full ciphertext — what the SSI actually watched arrive,
// whether or not the SIZE cap truncated the accepted count.
func (e *Engine) acceptDeposit(rs *runState, d collectDevice, accepted int,
	tuples []protocol.WireTuple, commit []byte, stats tds.CollectStats, now time.Time,
	epoch, attempt int) {
	sent, sentBytes := len(tuples), protocol.TotalSize(tuples)
	rs.metrics.Nt += int64(accepted)
	if accepted == sent {
		rs.metrics.TrueTuples += int64(stats.True)
	}
	rs.metrics.DepositedDevices++
	rs.metrics.CollectBytes += int64(sentBytes)
	rs.recordDepositCommit(d, accepted, tuples, commit, epoch, attempt)
	if e.sampled(d.id) {
		e.obs.tracer.SSIEvent(rs.post.ID, "deposit", d.id, now,
			obs.CipherFacts{Tuples: accepted, Bytes: int64(sentBytes), Attempt: attempt})
	}
	e.noteRollup(rs, true, accepted, int64(sentBytes), now)
	e.obs.devices.With("accepted").Inc()
	e.obs.tuples.With("accepted").Add(float64(accepted))
	if accepted == sent {
		e.obs.tuples.With("true").Add(float64(stats.True))
	}
	e.obs.bytes.With("collect_up").Add(float64(sentBytes))
	e.obs.depositTuples.Observe(float64(accepted))
}

// recordRejected accounts an envelope the SSI rejected: a corrupt one in
// CorruptDeposits, a revoked or stale one in RejectedDeposits. The
// rejection does not abort the collection: the querybox stays open and
// the walk proceeds.
// A revoked device's deposit lands here when the fault plan scripts it to
// keep depositing past its expulsion — the SSI's admit gate is the line
// of defense, and the "deposit-revoked" ledger entry proves it held.
func (e *Engine) recordRejected(rs *runState, d collectDevice, now time.Time, err error, attempt int) {
	kind, outcome := "deposit-stale", "stale"
	switch {
	case errors.Is(err, ssi.ErrCorruptDeposit):
		kind, outcome = "deposit-corrupt", "corrupt"
		rs.metrics.CorruptDeposits++
	case errors.Is(err, ssi.ErrRevokedDeposit):
		kind, outcome = "deposit-revoked", "revoked"
		fallthrough
	default:
		rs.metrics.RejectedDeposits++
	}
	rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
		Kind: kind, Phase: "collection", Device: d.id, Attempt: attempt, At: now,
	})
	e.noteRollup(rs, false, 0, 0, now)
	e.obs.devices.With(outcome).Inc()
}

// recordStaleDevice accounts a device that connected while a torn rollout
// left it unable to serve this query's epoch: it has neither migrated to
// the post's epoch nor kept it as grace material. The connection slot is
// not spent (the SSI refuses before any transfer); the device queues for
// one backoff-billed retry after the walk, by which time the rollout may
// have reached it. The ledger entry makes the degradation auditable.
func (e *Engine) recordStaleDevice(rs *runState, d collectDevice, now time.Time) {
	rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
		Kind: "deposit-stale", Phase: "collection", Device: d.id, Attempt: 1, At: now,
	})
	rs.staleQ = append(rs.staleQ, d)
	e.noteRollup(rs, false, 0, 0, now)
	e.obs.devices.With("stale").Inc()
}

// recordDropped accounts a device that connected but vanished
// mid-transfer; the SSI discards the partial deposit after DepositTimeout.
func (e *Engine) recordDropped(rs *runState, d collectDevice, now time.Time) {
	wait := rs.faults.DepositWait()
	rs.metrics.DroppedDeposits++
	rs.metrics.Timeouts++
	rs.metrics.RetryWait += wait
	rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
		Kind: "deposit-timeout", Phase: "collection", Device: d.id,
		Attempt: 1, Wait: wait, At: now,
	})
	e.noteRollup(rs, false, 0, 0, now)
	e.obs.devices.With("dropped").Inc()
	e.obs.retryWait.Add(wait.Seconds())
}

// rollupWindow is how many committed connections one rollup span covers
// when trace sampling is fractional. 4096 keeps a million-device walk at
// a few hundred rollup spans.
const rollupWindow = 4096

// collectRollup accumulates one window's worth of collection outcomes, in
// commit order, so the sampled trace still accounts every device: counts,
// ciphertext volume, and exact per-deposit tuple quantiles.
type collectRollup struct {
	devices  int
	deposits int
	tuples   int
	bytes    int64
	samples  []float64 // tuples per accepted deposit
	start    time.Time
	seq      int
}

// noteRollup folds one committed connection into the open rollup window
// and flushes the window when it fills. Commit order is the pre-drawn
// connection order, so rollup spans are as deterministic as the walk.
func (e *Engine) noteRollup(rs *runState, accepted bool, tuples int, bytes int64, now time.Time) {
	r := rs.roll
	if r == nil {
		return
	}
	if r.devices == 0 {
		r.start = now
	}
	r.devices++
	if accepted {
		r.deposits++
		r.tuples += tuples
		r.bytes += bytes
		r.samples = append(r.samples, float64(tuples))
	}
	if r.devices >= rollupWindow {
		e.flushRollup(rs, now)
	}
}

// flushRollup closes the open rollup window as an immediately-ended child
// span of the collect span. No-op without an open window.
func (e *Engine) flushRollup(rs *runState, now time.Time) {
	r := rs.roll
	if r == nil || r.devices == 0 {
		return
	}
	r.seq++
	sp := e.obs.tracer.StartChild(rs.post.ID, fmt.Sprintf("collect-rollup-%03d", r.seq),
		obs.PartyEngine, r.start)
	sp.SetAttr("devices", strconv.Itoa(r.devices)).
		SetAttr("deposits", strconv.Itoa(r.deposits)).
		SetAttr("tuples", strconv.Itoa(r.tuples)).
		SetAttr("bytes", strconv.FormatInt(r.bytes, 10))
	if len(r.samples) > 0 {
		sp.SetAttr("tuples_p50", strconv.FormatFloat(obs.Quantile(r.samples, 0.5), 'f', 1, 64)).
			SetAttr("tuples_p99", strconv.FormatFloat(obs.Quantile(r.samples, 0.99), 'f', 1, 64))
	}
	e.obs.tracer.EndSpan(rs.post.ID, now)
	r.devices, r.deposits, r.tuples, r.bytes = 0, 0, 0, 0
	r.samples = r.samples[:0]
}

// collectSequential walks the eligible devices in connection order, one
// connection at a time — the only collection path. Devices left when the
// SIZE condition closes the querybox are accounted as not reached. It
// returns the simulated instant the walk ended.
func (e *Engine) collectSequential(ctx context.Context, rs *runState, cfgTpl tds.CollectConfig,
	devices []collectDevice, start time.Time) (time.Time, error) {
	post := rs.post
	interval := e.cfg.ConnectionInterval
	now := start
	// One arena serves the whole walk: each connection's ciphertexts are
	// carved from shared blocks instead of individual allocations.
	cfgTpl.Arena = &tdscrypto.Arena{}
	for i, d := range devices {
		if rs.ssi.CollectionDone(post.ID, now) {
			rs.metrics.NotReached += len(devices) - i
			break
		}
		if err := ctxErr(ctx); err != nil {
			return now, err
		}
		if d.b.DropDeposit {
			// The device connected and its slot is spent, but its deposit
			// never lands.
			e.recordDropped(rs, d, now)
			now = now.Add(d.step(interval))
			continue
		}
		if e.isRevoked(d.id) && !rs.revokedAllowed() {
			// Expelled mid-run: the SSI refuses the connection outright —
			// no grace for revocation. Same account as a device that could
			// not answer; no connection slot is spent.
			e.recordCollectError(rs, d, now)
			continue
		}
		if d.t == nil {
			// The packed slot wakes for exactly this connection; the
			// loop-local copy keeps the walk from accumulating devices.
			t, err := e.materializeDevice(d.slot)
			if err != nil {
				return now, err
			}
			d.t = t
		}
		if rs.rotScript != nil && e.rotationInProgress() && !d.t.ServesEpoch(post.Epoch) {
			// A torn rollout left this device on the wrong side of the
			// epoch boundary; queue it for a post-walk retry.
			e.recordStaleDevice(rs, d, now)
			continue
		}
		tuples, stats, err := e.collectOne(d.t, post, cfgTpl, now)
		if err != nil {
			// A device that cannot answer (stale key epoch, local fault) is
			// indistinguishable from one that never connected; the protocol
			// proceeds without it.
			e.recordCollectError(rs, d, now)
			continue
		}
		done, err := e.commitDeposit(rs, d, tuples, stats, now, 1)
		if err != nil {
			return now, err
		}
		if done {
			rs.metrics.NotReached += len(devices) - i - 1
			break
		}
		now = now.Add(d.step(interval))
	}
	return now, nil
}

// revokedAllowed reports whether the fault plan scripts revoked devices
// to keep depositing anyway — the adversarial case where the SSI's admit
// gate, not the engine-side connection refusal, must hold the line.
func (rs *runState) revokedAllowed() bool {
	return rs.rotScript != nil && rs.rotScript.RevokedDeposits
}

// retryStaleDevices drains the stale queue after the main walk: devices
// that connected while a torn rollout left them unable to serve the
// query's epoch get one more connection, in their original order, each
// billed a second-attempt backoff. By now the scripted waves (or a
// completed rollout) may have migrated them; a device still stale — or
// revoked meanwhile — degrades to the collect-error account, never to a
// wrong answer.
func (e *Engine) retryStaleDevices(ctx context.Context, rs *runState, cfgTpl tds.CollectConfig,
	now time.Time) (time.Time, error) {
	post := rs.post
	interval := e.cfg.ConnectionInterval
	cfgTpl.Arena = &tdscrypto.Arena{}
	queue := rs.staleQ
	rs.staleQ = nil
	for i, d := range queue {
		if rs.ssi.CollectionDone(post.ID, now) {
			rs.metrics.NotReached += len(queue) - i
			break
		}
		if err := ctxErr(ctx); err != nil {
			return now, err
		}
		t, err := e.materializeDevice(d.slot)
		if err != nil {
			return now, err
		}
		d.t = t
		if e.isRevoked(d.id) || !d.t.ServesEpoch(post.Epoch) {
			e.recordCollectError(rs, d, now)
			continue
		}
		wait := rs.faults.RetryWait(2)
		rs.metrics.RetryWait += wait
		e.obs.retryWait.Add(wait.Seconds())
		now = now.Add(wait)
		tuples, stats, err := e.collectOne(d.t, post, cfgTpl, now)
		if err != nil {
			e.recordCollectError(rs, d, now)
			continue
		}
		done, err := e.commitDeposit(rs, d, tuples, stats, now, 2)
		if err != nil {
			return now, err
		}
		if done {
			rs.metrics.NotReached += len(queue) - i - 1
			break
		}
		now = now.Add(d.step(interval))
	}
	return now, nil
}
