// Package registry is a content-addressed store of parsed datasets: the
// key of a dataset is the SHA-256 of its canonicalized CSV bytes, so the
// same upload — regardless of line endings or a missing trailing newline
// — always resolves to the same entry and is parsed exactly once. The
// store is bounded by a byte budget with LRU eviction and keeps
// hit/miss/eviction counters for /statsz.
//
// The registry is the "mine once, serve many" seam of the service: jobs
// reference datasets by hash, repeated uploads of the same CSV are free,
// and the result cache in package jobs keys on the same hash.
//
// Internally the store is lock-striped into shards (see shard.go): a
// key's shard is fixed by a hash of its content address, each shard has
// its own mutex, LRU list and counters, and the byte budget is global —
// an insert that pushes total residency over budget evicts the globally
// least-recently-used entries regardless of which shard holds them, so
// the observable contents match a single-shard store exactly while
// unrelated Get/Register traffic no longer serializes on one lock.
//
// With a disk-spill tier attached (AttachSpill), eviction is no longer
// data loss: the victim's canonicalized CSV bytes are written
// crash-safely to disk *before* the in-memory entry is dropped, and a
// Get that misses memory falls through to a checksum-verified disk load
// that re-parses and promotes the dataset back into memory. The
// observable ladder is memory hit → disk hit → miss; a spill file whose
// contents no longer hash to its name is quarantined, never served.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"repro/internal/dataset"
)

// DefaultShards is the shard count used by New. Sixteen stripes keep
// lock hold times short at high request concurrency without measurable
// overhead at low concurrency; NewSharded overrides it.
const DefaultShards = 16

// Hash is the content address of a dataset: the lower-case hex SHA-256
// of its canonicalized CSV bytes.
type Hash string

// HashBytes computes the content address of raw CSV bytes.
func HashBytes(csv []byte) Hash {
	sum := sha256.Sum256(Canonicalize(csv))
	return Hash(hex.EncodeToString(sum[:]))
}

// Canonicalize normalizes CSV bytes before hashing: CRLF and lone CR
// line endings become LF, and a missing final newline is added. Parsing
// is unaffected (encoding/csv already accepts all three), so two uploads
// that parse identically hash identically.
func Canonicalize(csv []byte) []byte {
	out := make([]byte, 0, len(csv)+1)
	for i := 0; i < len(csv); i++ {
		c := csv[i]
		if c == '\r' {
			if i+1 < len(csv) && csv[i+1] == '\n' {
				i++
			}
			c = '\n'
		}
		out = append(out, c)
	}
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	return out
}

// Entry is one registered dataset. Entries are immutable once created:
// eviction only drops the registry's reference, so an Entry held by a
// running job stays valid after eviction.
type Entry struct {
	Hash  Hash
	Data  *dataset.Dataset
	Bytes int64 // estimated resident size, charged against the budget

	// raw holds the canonicalized CSV bytes when a spill tier is
	// attached — the payload a byte-budget eviction writes to disk.
	// Registries without a spill tier leave it nil (no memory overhead).
	raw []byte
}

// ShardStats is the per-shard slice of the registry counters.
type ShardStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats is a point-in-time snapshot of the registry counters. The
// top-level counters aggregate across shards; Shards carries the
// per-shard breakdown for /statsz, and Spill the disk-tier counters
// when one is attached.
type Stats struct {
	Entries   int          `json:"entries"`
	Bytes     int64        `json:"bytes"`
	Budget    int64        `json:"budget_bytes"`
	Hits      int64        `json:"hits"`
	Misses    int64        `json:"misses"`
	Evictions int64        `json:"evictions"`
	Shards    []ShardStats `json:"shards,omitempty"`
	Spill     *SpillStats  `json:"spill,omitempty"`
}

// Registry is a byte-budgeted, content-addressed, lock-striped LRU store
// of parsed datasets, optionally backed by a disk-spill tier. All
// methods are safe for concurrent use.
type Registry struct {
	budget int64 // <= 0 means unlimited
	shards []*shard
	size   atomic.Int64 // total resident bytes across shards
	clock  atomic.Int64 // global recency stamp source (see shard.go)

	// spill, when non-nil, is the disk tier beneath the memory LRU;
	// spillOpts are the CSV options disk fall-through re-parses with
	// (they must match what Register was called with, or the promoted
	// dataset would differ from the original). Set once by AttachSpill
	// before the registry serves traffic.
	spill     *Spill
	spillOpts dataset.CSVOptions

	// locks serializes the multi-step transitions per content address
	// (see keylock.go): the eviction cycle, disk promotion, and Remove
	// (with a spill tier) each hold the hash's lock end to end, so no two
	// of them can interleave on one dataset.
	locks keyLocks
}

// New returns a registry bounded by budgetBytes (<= 0 for unlimited)
// with DefaultShards lock stripes.
func New(budgetBytes int64) *Registry {
	return NewSharded(budgetBytes, DefaultShards)
}

// NewSharded returns a registry bounded by budgetBytes (<= 0 for
// unlimited) striped into shards locks (values < 1 are clamped to 1,
// which reproduces the original single-lock store).
func NewSharded(budgetBytes int64, shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	r := &Registry{budget: budgetBytes, shards: make([]*shard, shards)}
	for i := range r.shards {
		r.shards[i] = &shard{}
	}
	return r
}

// NumShards returns the number of lock stripes.
func (r *Registry) NumShards() int { return len(r.shards) }

// AttachSpill wires the disk tier beneath the memory LRU: evictions
// spill the canonicalized CSV to sp before dropping the in-memory
// entry, and Get misses fall through to a verified disk load that is
// re-parsed with opts and promoted back into memory. Attach before the
// registry serves traffic — entries registered earlier carry no raw
// bytes and evict without spilling (they predate the tier, so nothing
// is lost that was ever on it).
func (r *Registry) AttachSpill(sp *Spill, opts dataset.CSVOptions) {
	r.spill = sp
	r.spillOpts = opts
}

// Spill returns the attached disk tier, nil if none.
func (r *Registry) Spill() *Spill { return r.spill }

// shardFor maps a content address onto its stripe with FNV-1a, inlined
// (hash/fnv's New32a allocates per call, which would dominate the Get
// fast path). The key is already a SHA-256 hex string, but re-hashing
// keeps the mapping well distributed for arbitrary Hash values too
// (tests use short fakes).
func (r *Registry) shardFor(h Hash) *shard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	// 16 hex chars = 64 bits of the underlying SHA-256 — ample stripe
	// entropy; hashing the full 64-char key would triple Get's cost.
	n := len(h)
	if n > 16 {
		n = 16
	}
	x := uint32(offset32)
	for i := 0; i < n; i++ {
		x ^= uint32(h[i])
		x *= prime32
	}
	return r.shards[x%uint32(len(r.shards))]
}

// Register stores the dataset parsed from csv under its content address.
// When the hash is already present the existing entry is returned with
// existed == true and nothing is re-parsed — that dedup is the cache hit
// the counters record. A parse failure stores nothing.
func (r *Registry) Register(csv []byte, opts dataset.CSVOptions) (*Entry, bool, error) {
	canon := Canonicalize(csv)
	sum := sha256.Sum256(canon)
	h := Hash(hex.EncodeToString(sum[:]))
	sh := r.shardFor(h)
	if e, ok := sh.get(h, r.clock.Add(1)); ok {
		return e, true, nil
	}

	// Parse outside the lock: CSV parsing dominates registration cost and
	// must not serialize unrelated requests. A concurrent duplicate upload
	// may parse twice; the second insert below discards its copy.
	data, err := dataset.ReadCSV(bytes.NewReader(csv), opts)
	if err != nil {
		sh.miss()
		return nil, false, fmt.Errorf("registry: parsing CSV: %w", err)
	}
	e := r.newEntry(h, data, canon)

	e, existed := sh.put(e, r.clock.Add(1))
	if !existed {
		r.size.Add(e.Bytes)
		r.enforceBudget(h)
	}
	return e, existed, nil
}

// newEntry builds an Entry, retaining (and charging for) the canonical
// bytes only when a spill tier needs them at eviction time.
func (r *Registry) newEntry(h Hash, data *dataset.Dataset, canon []byte) *Entry {
	e := &Entry{Hash: h, Data: data, Bytes: datasetBytes(data)}
	if r.spill != nil {
		e.raw = canon
		e.Bytes += int64(len(canon))
	}
	return e
}

// Get looks up a dataset by hash, refreshing its LRU recency. With a
// spill tier attached, a memory miss falls through to a verified disk
// load: the spill file is re-hashed (a mismatch quarantines it and
// reports a miss — corruption is never served), re-parsed, and promoted
// back into the memory tier. Exactly one of hits/misses moves per call:
// a disk hit charges the miss through the promotion insert, keeping the
// hits+misses == lookups invariant intact across tiers.
func (r *Registry) Get(h Hash) (*Entry, bool) {
	sh := r.shardFor(h)
	if e, ok := sh.get(h, r.clock.Add(1)); ok {
		return e, true
	}
	if e, ok := r.promoteFromSpill(sh, h); ok {
		return e, true
	}
	sh.miss()
	return nil, false
}

// promoteFromSpill serves a memory miss from the disk tier: load and
// verify the spilled bytes, re-parse, insert into the shard (charging
// the miss the lookup owes), and re-enforce the memory budget — which
// may in turn spill something else.
//
// The whole load→parse→insert sequence runs under the hash's key lock,
// which excludes Remove for its duration: a DELETE either completes
// before the promotion starts (the spill file is gone, the lookup is a
// plain miss) or blocks until the promotion finishes and then removes
// the freshly promoted entry — it can never land in the middle and have
// the insert resurrect a dataset whose deletion was already
// acknowledged. The lock is released before budget enforcement, which
// may acquire another hash's lock (never two at once — see keylock.go).
func (r *Registry) promoteFromSpill(sh *shard, h Hash) (*Entry, bool) {
	if r.spill == nil {
		return nil, false
	}
	r.locks.lock(h)
	// Re-probe memory under the lock: a concurrent promotion of the
	// same hash may have landed while we waited.
	if e, ok := sh.get(h, r.clock.Add(1)); ok {
		r.locks.unlock(h)
		return e, true
	}
	raw, err := r.spill.load(h)
	if err != nil {
		r.locks.unlock(h)
		return nil, false // missing, unreadable, or quarantined: a plain miss
	}
	data, err := dataset.ReadCSV(bytes.NewReader(raw), r.spillOpts)
	if err != nil {
		// The bytes hash correctly, so they are exactly what was once
		// parsed successfully; a parse failure here means the options
		// changed between runs. Treat as a miss rather than serve a
		// dataset parsed differently than the original.
		r.spill.loadErrors.Add(1)
		r.locks.unlock(h)
		return nil, false
	}
	e, existed := sh.put(r.newEntry(h, data, raw), r.clock.Add(1))
	r.locks.unlock(h)
	if !existed {
		r.size.Add(e.Bytes)
		r.enforceBudget(h)
	}
	return e, true
}

// Remove drops the entry for h across every tier — memory, spill file,
// and any quarantined copy — reporting whether any of them held it.
// Deletion must be total: after Remove, no tier may re-materialize the
// dataset, which is why (with a spill tier attached) Remove holds the
// hash's key lock across both tiers — an in-flight disk promotion or
// spill-on-evict of the same hash finishes first and its result is then
// deleted here, instead of re-materializing the dataset afterwards.
// Explicit removal is a delete, not an eviction: it does not move the
// hit/miss/eviction counters.
func (r *Registry) Remove(h Hash) bool {
	if r.spill != nil {
		r.locks.lock(h)
		defer r.locks.unlock(h)
	}
	freed, ok := r.shardFor(h).remove(h)
	if ok {
		r.size.Add(-freed)
	}
	if r.spill != nil && r.spill.remove(h) {
		ok = true
	}
	return ok
}

// enforceBudget evicts globally least-recently-used entries until total
// residency fits the budget, sparing justAdded (the entry whose insert
// triggered enforcement) so a single dataset larger than the whole
// budget is still usable — it evicts everything else instead, exactly as
// the single-lock store did. Shard locks are only ever taken one at a
// time, so enforcement cannot deadlock against Register/Get traffic; the
// per-pass rescan makes cross-shard eviction an approximation of global
// LRU under concurrent touches and exact under sequential operation.
func (r *Registry) enforceBudget(justAdded Hash) {
	if r.budget <= 0 {
		return
	}
	for r.size.Load() > r.budget {
		if !r.evictGlobalLRU(justAdded) {
			return
		}
	}
}

// evictGlobalLRU removes the resident entry with the oldest recency
// stamp, skipping spare. It reports false when nothing is evictable —
// spare is the only entry left, or a spill tier is attached and the
// victim cannot be spilled — which ends budget enforcement.
//
// There is one cycle, with or without a spill tier: peek the victim,
// take its key lock, re-confirm it is still the untouched LRU tail,
// write its spill file (only with a spill tier) outside every shard
// lock, then evict only if its recency stamp is unchanged
// (compare-and-evict). Eviction never precedes a durable copy, so a
// crash or write failure at any point leaves the dataset resident in
// exactly one tier. The key lock held across the whole cycle excludes
// Remove, disk promotion, and every other evictor of the same hash: two
// concurrent over-budget inserts can no longer both peek one victim and
// have the loser — finding the entry gone — delete the spill file the
// winner just wrote. A permanent spill failure aborts enforcement
// entirely: the registry stays over budget and keeps serving from
// memory — counted, not hidden (write_errors in /statsz) — because
// dropping the only copy to honor a byte budget would turn a disk error
// into data loss.
//
// A peek that a concurrent touch or removal outdates is simply rescanned.
// Progress is guaranteed: either some pass evicts, or the store drains
// to a single entry and the scan finds nothing evictable.
func (r *Registry) evictGlobalLRU(spare Hash) bool {
	for {
		victim, e, stamp, entries := r.oldestShard(spare)
		if victim == nil || entries <= 1 {
			return false
		}
		r.locks.lock(e.Hash)
		if s, ok := victim.stampOf(e.Hash); !ok || s != stamp {
			// Evicted, removed, or touched while we waited for the lock:
			// it is no longer the victim we peeked. Rescan.
			r.locks.unlock(e.Hash)
			continue
		}
		// Only entries registered with a spill tier attached carry raw
		// bytes; the rest evict without spilling — there is no disk tier,
		// or they predate it.
		if e.raw != nil {
			if err := r.spill.store(e.Hash, e.raw); err != nil {
				r.locks.unlock(e.Hash)
				return false
			}
		}
		freed, status := victim.evictIfUnchanged(e.Hash, stamp)
		switch status {
		case evictOK:
			r.size.Add(-freed)
			r.locks.unlock(e.Hash)
			return true
		case evictGone:
			// Unreachable while the key lock is held — Remove and
			// promotion both serialize on it, and the stamp re-check
			// above filtered rival evictors — but handled defensively:
			// deletion must stay total, so drop the spill file.
			if e.raw != nil {
				r.spill.remove(e.Hash)
			}
			r.locks.unlock(e.Hash)
		case evictTouched:
			// A concurrent Get refreshed the entry; it is no longer the
			// LRU victim. The spill file stays — it is correct by
			// content address and pre-pays a future eviction.
			r.locks.unlock(e.Hash)
		}
	}
}

// oldestShard scans all stripes for the one whose least-recently-used
// entry (other than spare) carries the globally oldest recency stamp,
// returning that shard, entry and stamp, and counts resident entries
// along the way. Each shard is locked only for its own scan.
func (r *Registry) oldestShard(spare Hash) (victim *shard, e *Entry, stamp int64, entries int) {
	for _, sh := range r.shards {
		se, st, n := sh.oldest(spare)
		entries += n
		if se != nil && (victim == nil || st < stamp) {
			victim, e, stamp = sh, se, st
		}
	}
	return victim, e, stamp, entries
}

// Stats returns a snapshot of the counters, aggregated and per shard.
func (r *Registry) Stats() Stats {
	s := Stats{Budget: r.budget, Shards: make([]ShardStats, len(r.shards))}
	for i, sh := range r.shards {
		ss := sh.stats()
		s.Shards[i] = ss
		s.Entries += ss.Entries
		s.Bytes += ss.Bytes
		s.Hits += ss.Hits
		s.Misses += ss.Misses
		s.Evictions += ss.Evictions
	}
	if r.spill != nil {
		sp := r.spill.Stats()
		s.Spill = &sp
	}
	return s
}

// datasetBytes estimates the resident size of a parsed dataset: 4 bytes
// per value code plus the schema strings with per-string overhead. An
// estimate is enough — the budget bounds order of magnitude, not pages.
func datasetBytes(d *dataset.Dataset) int64 {
	const strOverhead = 16
	var n int64
	for i := range d.Attrs {
		n += int64(len(d.Attrs[i].Name)) + strOverhead
		for _, v := range d.Attrs[i].Values {
			n += int64(len(v)) + strOverhead
		}
	}
	n += int64(d.NumRows()) * int64(d.NumAttrs()) * 4
	return n
}
