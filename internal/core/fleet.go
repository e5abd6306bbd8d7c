package core

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/trustedcells/tcq/internal/detrand"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
)

// The packed fleet representation (Config.PackedFleet): instead of one
// live *tds.TDS per enrolled device — a materialized LocalDB, a plans
// map, and expanded key schedules each — the engine keeps a serialized
// database blob per device plus a few bytes of enrollment state, and
// rebuilds a device only for the instants it is actually connected. Key
// rings are derived on demand from the KeyAuthority (RingAt) and their
// expanded form is cached per epoch, so an entire connection wave shares
// one set of AES key schedules and HMAC pools. Device identity, RNG
// seeding, corruption draws and key epochs are all reproduced exactly,
// which is what keeps packed and eager fleets bit-identical in every
// observable: rows, metrics, ledgers and traces.

// packedFleet is the slot-indexed store behind the nil entries of
// Engine.fleet. Slot i's blob region is blob[end[i-1]:end[i]] (zero
// length for eagerly enrolled slots), so the whole fleet costs one
// backing array plus ~13 bytes of bookkeeping per device.
type packedFleet struct {
	blob    []byte   // concatenated storage.PackDB blobs, in slot order
	end     []int64  // per slot: end offset of its blob region
	epoch   []uint32 // key-authority epoch the slot last enrolled at
	corrupt []bool   // compromised-at-enrollment flag (extended threat model)
}

// pad extends the bookkeeping through slot n-1 with zero-length regions,
// covering slots that were enrolled eagerly via AddTDS.
func (p *packedFleet) pad(n int) {
	for len(p.end) < n {
		p.end = append(p.end, int64(len(p.blob)))
		p.epoch = append(p.epoch, 0)
		p.corrupt = append(p.corrupt, false)
	}
}

// addPacked appends one packed slot.
func (p *packedFleet) addPacked(blob []byte, epoch uint32, corrupt bool) {
	p.blob = append(p.blob, blob...)
	p.end = append(p.end, int64(len(p.blob)))
	p.epoch = append(p.epoch, epoch)
	p.corrupt = append(p.corrupt, corrupt)
}

// region returns slot's serialized database.
func (p *packedFleet) region(slot int) []byte {
	start := int64(0)
	if slot > 0 {
		start = p.end[slot-1]
	}
	return p.blob[start:p.end[slot]]
}

// deviceCache shares materialized packed devices across in-flight
// queries — the shared-wave half of the multi-tenant server. In the
// paper's fleet model a device that wakes up serves every pending
// querybox during its connection; here, once one query's collection wave
// pays a slot's unpack, every other in-flight query reuses the same live
// TDS instead of materializing its own copy. Reuse is observation-free:
// materializeDevice is a pure function of (slot, epoch), and every TDS
// method drawn on the run path is safe for concurrent use, so a cached
// device answers each query exactly as a privately materialized one
// would. Disabled (max == 0) outside a Server, where single-query walks
// over million-device fleets must not accumulate live devices.
type deviceCache struct {
	mu  sync.Mutex
	max int
	// gen is the purge generation. A materialization started before a
	// purge must not land after it: put discards inserts whose observed
	// generation is stale, so a rotation or revocation that purged the
	// cache can never be undone by an in-flight materializeDevice
	// resurrecting pre-purge (possibly revoked) key material.
	gen  uint64
	devs map[int]*tds.TDS
}

// enable sizes the cache; max <= 0 disables it.
func (c *deviceCache) enable(max int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = max
	if max > 0 && c.devs == nil {
		c.devs = make(map[int]*tds.TDS)
	}
}

// get returns the cached device for slot (nil when absent) and the purge
// generation the lookup observed; hand that generation back to put.
func (c *deviceCache) get(slot int) (*tds.TDS, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.devs[slot], c.gen
}

// put caches one materialized device, but only when the cache generation
// is still the one the caller's get observed: a purge in between means
// the fleet's enrollment state moved while the device was being built,
// and inserting it would resurrect stale key material. A full cache stays
// as it is — the bound is a memory promise, not an eviction policy; the
// hot low-numbered waves of concurrent collections are exactly what it
// retains.
func (c *deviceCache) put(slot int, t *tds.TDS, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || c.max <= 0 || len(c.devs) >= c.max {
		return
	}
	if _, ok := c.devs[slot]; !ok {
		c.devs[slot] = t
	}
}

// purge empties the cache and advances the generation — required whenever
// slot epochs move (re-enrollment, revocation, rotation waves), since a
// cached device embodies the key material of the epoch it was
// materialized at.
func (c *deviceCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if c.devs != nil {
		c.devs = make(map[int]*tds.TDS)
	}
}

// each visits every cached device.
func (c *deviceCache) each(fn func(*tds.TDS)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.devs {
		fn(t)
	}
}

// packedID is the canonical device ID of a fleet slot — by construction
// identical to the ID AddTDS would have assigned the same slot.
func packedID(slot int) string { return fmt.Sprintf("tds-%05d", slot) }

// deviceID names a fleet slot without materializing it.
func (e *Engine) deviceID(slot int) string {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.deviceIDLocked(slot)
}

// deviceIDLocked is deviceID for callers already holding the lifecycle
// lock (rotation and revocation replace eager slots in place, so the
// slot read needs it).
func (e *Engine) deviceIDLocked(slot int) string {
	if t := e.fleet[slot]; t != nil {
		return t.ID
	}
	return packedID(slot)
}

// deviceAt reads one fleet slot under the lifecycle lock.
func (e *Engine) deviceAt(slot int) *tds.TDS {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.fleet[slot]
}

// isRevoked reports whether a device ID has been expelled, under the
// lifecycle read lock — hot paths (live-list builds, collection walks)
// would otherwise race a concurrent revocation.
func (e *Engine) isRevoked(id string) bool {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.revoked[id]
}

// keyMaterial expands (and caches) the key ring of one epoch. Every
// device enrolled at the same epoch holds the same ring, so a million
// packed devices share one AES key schedule, HMAC pool and committer
// per epoch instead of carrying their own.
func (e *Engine) keyMaterial(epoch uint32) (*tds.KeyMaterial, error) {
	e.kmMu.Lock()
	defer e.kmMu.Unlock()
	if km, ok := e.kmCache[epoch]; ok {
		return km, nil
	}
	km, err := tds.NewKeyMaterial(e.keyAuth.RingAt(uint64(epoch)))
	if err != nil {
		return nil, err
	}
	if e.kmCache == nil {
		e.kmCache = make(map[uint32]*tds.KeyMaterial)
	}
	e.kmCache[epoch] = km
	return km, nil
}

// materializeDevice rebuilds one packed slot into a live TDS: unpack the
// database against the fleet's shared schema (so the shared plan cache
// keys match), borrow the epoch's expanded key material, and restore the
// enrollment-time corruption flag. A slot that migrated during a
// still-open rotation grace window comes back exactly as a device that
// lived through the migration: new primary material, previous epoch's
// material held as grace. Safe for concurrent use; the caller owns the
// returned device and drops it when the connection ends.
func (e *Engine) materializeDevice(slot int) (*tds.TDS, error) {
	if t := e.deviceAt(slot); t != nil {
		return t, nil
	}
	cached, gen := e.devCache.get(slot)
	if cached != nil {
		return cached, nil
	}
	db, err := storage.UnpackDB(e.schema, e.packed.region(slot))
	if err != nil {
		return nil, fmt.Errorf("core: slot %d: %w", slot, err)
	}
	e.life.RLock()
	epoch := e.packed.epoch[slot]
	corrupt := e.packed.corrupt[slot]
	grace := e.rot != nil && epoch == e.rot.newEpoch && epoch > 0
	e.life.RUnlock()
	km, err := e.keyMaterial(epoch)
	if err != nil {
		return nil, err
	}
	var t *tds.TDS
	if grace {
		// Build the device at its pre-migration epoch, then migrate it —
		// the same state transition the live rotation performed, so the
		// rebuilt device keeps serving in-flight old-epoch queries.
		prevKM, err := e.keyMaterial(epoch - 1)
		if err != nil {
			return nil, err
		}
		t = tds.NewWithMaterial(packedID(slot), db, prevKM, e.cfg.Policy, e.authority)
		t.SetEpoch(int(epoch)) // old wire epoch: (epoch-1)+1
		t.Migrate(int(epoch)+1, km)
	} else {
		t = tds.NewWithMaterial(packedID(slot), db, km, e.cfg.Policy, e.authority)
		t.SetEpoch(int(epoch) + 1)
	}
	t.Shared = e.planCache
	t.Corrupt = corrupt
	e.devCache.put(slot, t, gen)
	return t, nil
}

// slotServes reports whether the device in one fleet slot can open
// queries posted at the given wire epoch — without materializing packed
// slots. During a live rotation's grace window a migrated device serves
// its new epoch and the previous one; an unmigrated device serves only
// its own. Epoch 0 means "unknown" and matches everything.
func (e *Engine) slotServes(slot, wireEpoch int) bool {
	if wireEpoch == 0 {
		return true
	}
	e.life.RLock()
	t := e.fleet[slot]
	var epoch uint32
	var grace bool
	if t == nil {
		epoch = e.packed.epoch[slot]
		grace = e.rot != nil && epoch == e.rot.newEpoch && epoch > 0
	}
	e.life.RUnlock()
	if t != nil {
		return t.ServesEpoch(wireEpoch)
	}
	if int(epoch)+1 == wireEpoch {
		return true
	}
	return grace && int(epoch) == wireEpoch
}

// runDevice materializes a slot for the rest of one run, caching the
// device in the run state so the aggregation/filtering phases — which
// draw the same workers repeatedly — pay the unpack once. Collection
// deliberately bypasses this cache: a walk over a million-device fleet
// must not accumulate a million live devices.
func (e *Engine) runDevice(rs *runState, slot int) (*tds.TDS, error) {
	if t := e.deviceAt(slot); t != nil {
		return t, nil
	}
	if t, ok := rs.devs[slot]; ok {
		return t, nil
	}
	t, err := e.materializeDevice(slot)
	if err != nil {
		return nil, err
	}
	if rs.devs == nil {
		rs.devs = make(map[int]*tds.TDS)
	}
	rs.devs[slot] = t
	return t, nil
}

// provisionPacked is ProvisionFleet's packed branch: serialize each
// populated database into the shared blob and discard the original, so
// enrollment retains nothing of populate's per-device scratch.
func (e *Engine) provisionPacked(n int, populate func(i int) *storage.LocalDB) error {
	if e.packed == nil {
		e.packed = &packedFleet{}
	}
	epoch := uint32(e.keyAuth.Epoch())
	for i := 0; i < n; i++ {
		slot := len(e.fleet)
		corrupt := false
		if f := e.cfg.CompromisedFraction; f > 0 {
			// The exact draw AddTDS would have made for this slot.
			r := rand.New(rand.NewSource(e.cfg.Seed ^ int64(detrand.FNV1a(packedID(slot))) ^ 0x5eed))
			corrupt = r.Float64() < f
		}
		e.packed.pad(slot)
		e.packed.addPacked(storage.PackDB(populate(i)), epoch, corrupt)
		e.fleet = append(e.fleet, nil)
	}
	return nil
}
