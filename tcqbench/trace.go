package main

import (
	"math/rand"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
)

// timedSSI is the traced run's view into the ssi layer: it wraps the
// engine's default SSI, times every call from the outside, and keeps
// per-query counters keyed by query ID. It changes no argument and no
// result, so a traced run computes exactly what an untraced one does.
type timedSSI struct {
	inner *ssi.Sharded

	mu      sync.Mutex
	queries map[string]*ssiAccount
}

var _ ssi.Service = (*timedSSI)(nil)

// ssiAccount is what the SSI saw of one query. Calls before (and
// including) the query's last deposit belong to collection; calls after
// it belong to aggregation and filtering. Since the last deposit is only
// known once the query returns, non-deposit time is held in pendingNs and
// moved into collectNs whenever a later deposit shows it was collection.
type ssiAccount struct {
	depositCalls, envelopes, rejected int64
	depositNs                         int64
	partitionCalls, partitionTuples   int64
	partitionNs, readNs               int64
	collectNs, pendingNs              int64
	lastDeposit                       time.Time
	bytesStored                       int64
}

func newTimedSSI() *timedSSI {
	return &timedSSI{inner: ssi.NewSharded(0), queries: make(map[string]*ssiAccount)}
}

// take returns and forgets the account of one finished query.
func (t *timedSSI) take(id string) ssiAccount {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.queries[id]
	delete(t.queries, id)
	if a == nil {
		return ssiAccount{}
	}
	return *a
}

// record folds one call into the query's account under the lock.
func (t *timedSSI) record(id string, start time.Time, fn func(a *ssiAccount, ns int64, end time.Time)) {
	end := time.Now()
	t.mu.Lock()
	a := t.queries[id]
	if a == nil {
		a = &ssiAccount{}
		t.queries[id] = a
	}
	fn(a, end.Sub(start).Nanoseconds(), end)
	t.mu.Unlock()
}

func deposited(a *ssiAccount, ns int64, end time.Time) {
	a.depositCalls++
	a.depositNs += ns
	a.collectNs += a.pendingNs + ns
	a.pendingNs = 0
	a.lastDeposit = end
}

func other(a *ssiAccount, ns int64, _ time.Time) { a.pendingNs += ns }

func read(a *ssiAccount, ns int64, end time.Time) {
	a.readNs += ns
	other(a, ns, end)
}

// WithTracer and WithJournal keep the engine's trace and journal mirrors
// wired to the wrapped SSI, as they are when no decorator sits between.
func (t *timedSSI) WithTracer(tr *obs.Tracer)  { t.inner.WithTracer(tr) }
func (t *timedSSI) WithJournal(j *obs.Journal) { t.inner.WithJournal(j) }

func (t *timedSSI) SetEpochPolicy(p ssi.EpochPolicy) { t.inner.SetEpochPolicy(p) }

func (t *timedSSI) PostQuery(post *protocol.QueryPost, now time.Time) error {
	start := time.Now()
	err := t.inner.PostQuery(post, now)
	t.record(post.ID, start, other)
	return err
}

func (t *timedSSI) DepositEnvelope(id string, dep *protocol.Deposit, now time.Time) (int, bool, error) {
	start := time.Now()
	n, done, err := t.inner.DepositEnvelope(id, dep, now)
	t.record(id, start, func(a *ssiAccount, ns int64, end time.Time) {
		deposited(a, ns, end)
		a.envelopes++
		if err != nil {
			a.rejected++
		}
	})
	return n, done, err
}

func (t *timedSSI) DepositEnvelopeBatch(id string, deps []*protocol.Deposit, now time.Time) ([]ssi.DepositOutcome, int, bool, error) {
	start := time.Now()
	out, doneAt, done, err := t.inner.DepositEnvelopeBatch(id, deps, now)
	t.record(id, start, func(a *ssiAccount, ns int64, end time.Time) {
		deposited(a, ns, end)
		a.envelopes += int64(len(deps))
		for _, o := range out {
			if o.Err != nil {
				a.rejected++
			}
		}
	})
	return out, doneAt, done, err
}

func (t *timedSSI) CollectionDone(id string, now time.Time) bool {
	start := time.Now()
	done := t.inner.CollectionDone(id, now)
	t.record(id, start, other)
	return done
}

func (t *timedSSI) CollectedTuples(id string) []protocol.WireTuple {
	start := time.Now()
	out := t.inner.CollectedTuples(id)
	t.record(id, start, read)
	return out
}

func (t *timedSSI) CollectedCount(id string) int {
	start := time.Now()
	n := t.inner.CollectedCount(id)
	t.record(id, start, other)
	return n
}

func (t *timedSSI) CollectedRange(id string, start, end int) []protocol.WireTuple {
	t0 := time.Now()
	out := t.inner.CollectedRange(id, start, end)
	t.record(id, t0, read)
	return out
}

func (t *timedSSI) ObserveRelay(id string, tuples []protocol.WireTuple, at time.Time) {
	start := time.Now()
	t.inner.ObserveRelay(id, tuples, at)
	t.record(id, start, other)
}

func (t *timedSSI) Record(id string, e ssi.LedgerEntry) {
	start := time.Now()
	t.inner.Record(id, e)
	t.record(id, start, other)
}

func (t *timedSSI) LedgerFor(id string) []ssi.LedgerEntry {
	start := time.Now()
	out := t.inner.LedgerFor(id)
	t.record(id, start, other)
	return out
}

func (t *timedSSI) ObservationFor(id string) ssi.Observation {
	start := time.Now()
	out := t.inner.ObservationFor(id)
	t.record(id, start, other)
	return out
}

func (t *timedSSI) BytesStored(id string) int64 {
	start := time.Now()
	n := t.inner.BytesStored(id)
	t.record(id, start, other)
	return n
}

// Drop reads BytesStored first: once dropped, the query's store is gone.
func (t *timedSSI) Drop(id string) {
	stored := t.inner.BytesStored(id)
	start := time.Now()
	t.inner.Drop(id)
	t.record(id, start, func(a *ssiAccount, ns int64, end time.Time) {
		a.bytesStored = stored
		other(a, ns, end)
	})
}

func (t *timedSSI) partitioned(id string, start time.Time, tuples int) {
	t.record(id, start, func(a *ssiAccount, ns int64, end time.Time) {
		a.partitionCalls++
		a.partitionTuples += int64(tuples)
		a.partitionNs += ns
		other(a, ns, end)
	})
}

func (t *timedSSI) PartitionRandom(id string, tuples []protocol.WireTuple, perPartition int, rng *rand.Rand) [][]protocol.WireTuple {
	start := time.Now()
	out := t.inner.PartitionRandom(id, tuples, perPartition, rng)
	t.partitioned(id, start, len(tuples))
	return out
}

func (t *timedSSI) PartitionByTag(id string, tuples []protocol.WireTuple, maxPerPartition int) [][]protocol.WireTuple {
	start := time.Now()
	out := t.inner.PartitionByTag(id, tuples, maxPerPartition)
	t.partitioned(id, start, len(tuples))
	return out
}

func (t *timedSSI) Repartition(id string) [][]protocol.WireTuple {
	start := time.Now()
	out := t.inner.Repartition(id)
	t.record(id, start, read)
	return out
}

func (t *timedSSI) PartitionReady(id string, perPartition int) int {
	start := time.Now()
	n := t.inner.PartitionReady(id, perPartition)
	t.record(id, start, other)
	return n
}

func (t *timedSSI) TakePartition(id string, k, perPartition int) []protocol.WireTuple {
	start := time.Now()
	out := t.inner.TakePartition(id, k, perPartition)
	t.record(id, start, read)
	return out
}

func (t *timedSSI) StreamBuild(id string, perPartition int) [][]protocol.WireTuple {
	start := time.Now()
	out := t.inner.StreamBuild(id, perPartition)
	t.record(id, start, read)
	return out
}
