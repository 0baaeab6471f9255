package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sync"

	"optiwise"
	"optiwise/internal/fault"
	"optiwise/internal/obs"
)

// The result store: one content-addressed home for finished profiles,
// keyed by the SHA-256 job digest (see jobKey), with three tiers probed
// in order (DESIGN.md §11, §13):
//
//	memory  an LRU of decoded results under Config.CacheBytes
//	disk    the durable store's checksummed result segments (nil
//	        without Config.DataDir)
//	ring    sibling nodes, through the RingTier the cluster layer
//	        installs (nil on a single node)
//
// A result has one payload (WireResult's binary encoding, wire.go),
// made once when the result is admitted — or received ready-made from
// the ring. The payload's length sizes the memory entry, the payload
// itself becomes the disk segment, and the same bytes are pushed to the
// ring. Only full-fidelity results ever enter any tier.

// RingTier is the result store's cluster tier, implemented by
// internal/cluster. It moves opaque payloads: checksum verification and
// decoding happen here, so the cluster never needs the program image.
type RingTier interface {
	// Fetch asks the siblings that may hold key for its payload and the
	// checksum the sender computed; ok=false is a miss. It must bound
	// its own network time and be safe for concurrent use.
	Fetch(ctx context.Context, key string) (payload []byte, checksum string, ok bool)
	// Push hands a newly persisted payload to the key's replica owners.
	// It runs on its own goroutine; a failed push is left to the
	// cluster's anti-entropy pass to repair.
	Push(key string, payload []byte, checksum, traceID string)
}

// ErrBadKey rejects a result key that is not a job digest (64
// lowercase hex digits). Keys name files in the disk tier, so nothing
// else may reach it.
var ErrBadKey = errors.New("serve: result key must be 64 lowercase hex digits")

// validKey reports whether key has the shape of a job digest.
func validKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// wire is one result's payload and checksum.
type wire struct {
	payload []byte
	sum     string
}

// getResult is Submit's fast path: memory, then disk, through the
// serve.cache.get fault site — any injected failure (including a panic)
// demotes the probe to a miss, so a flaky store degrades to
// recomputation, never to a client-visible error. It never consults the
// ring: a submission must not wait on the network. A disk hit is
// frame-verified, decoded against the submitted program, and admitted
// to memory at the segment's length, which is what makes "restart loses
// no completed result" true without loading every segment at boot.
func (s *Server) getResult(key string, prog *optiwise.Program) (res *optiwise.Result, ok bool) {
	defer func() {
		if recover() != nil {
			res, ok = nil, false
		}
	}()
	if err := fault.Err(fault.SiteCacheGet); err != nil {
		return nil, false
	}
	if res, ok := s.cache.get(key); ok {
		return res, true
	}
	if s.store == nil {
		return nil, false
	}
	payload, err := s.store.ReadResult(key)
	if err != nil {
		if !os.IsNotExist(err) {
			obs.Warn("serve: result segment unreadable",
				obs.F("digest", shortDigest(key)), obs.F("err", err.Error()))
		}
		return nil, false
	}
	res, err = DecodeWireResult(payload, prog)
	if err != nil {
		obs.Warn("serve: result segment invalid",
			obs.F("digest", shortDigest(key)), obs.F("err", err.Error()))
		return nil, false
	}
	s.cache.put(key, res, int64(len(payload)))
	return res, true
}

// fetchResult asks the ring tier for a key a worker is about to
// simulate. The payload must match its checksum and decode against the
// local program into a full-fidelity result; anything else — including
// a panic in the tier — is a miss and the worker simulates.
func (s *Server) fetchResult(ctx context.Context, key string, prog *optiwise.Program) (res *optiwise.Result, w wire, ok bool) {
	defer func() {
		if recover() != nil {
			res, w, ok = nil, wire{}, false
		}
	}()
	payload, sum, ok := s.ring.Fetch(ctx, key)
	if !ok {
		return nil, wire{}, false
	}
	if got := WireChecksum(payload); got != sum {
		obs.Warn("serve: fetched result checksum mismatch",
			obs.F("digest", shortDigest(key)), obs.F("got", shortDigest(got)), obs.F("want", shortDigest(sum)))
		return nil, wire{}, false
	}
	res, err := DecodeWireResult(payload, prog)
	if err != nil || res.Degraded {
		obs.Warn("serve: fetched result unusable", obs.F("digest", shortDigest(key)))
		return nil, wire{}, false
	}
	return res, wire{payload: payload, sum: sum}, true
}

// putResult admits a finished full-fidelity result. w is its encoding
// when the result arrived encoded (a ring fetch); otherwise putResult
// encodes it, the only encode the result gets. Memory admission goes
// through the serve.cache.put fault site, where an injected failure
// drops only the memory entry; on a durable server the payload then
// becomes the key's disk segment. The encoding is returned when the
// segment landed, for the caller to journal and push.
func (s *Server) putResult(key string, res *optiwise.Result, w wire) (wire, bool) {
	if w.payload == nil {
		var err error
		if w.payload, w.sum, err = EncodeWireResult(res); err != nil {
			obs.Warn("serve: encode result failed", obs.F("digest", shortDigest(key)), obs.F("err", err.Error()))
			return wire{}, false
		}
	}
	s.admit(key, res, int64(len(w.payload)))
	if s.store == nil {
		return wire{}, false
	}
	if err := s.store.WriteResult(key, w.payload); err != nil {
		obs.Warn("serve: persist result failed", obs.F("digest", shortDigest(key)), obs.F("err", err.Error()))
		return wire{}, false
	}
	return w, true
}

// admit puts res in the memory tier through the serve.cache.put fault
// site: injected failures (including panics) drop the entry — memory is
// an optimization, losing an entry is always safe.
func (s *Server) admit(key string, res *optiwise.Result, size int64) {
	defer func() {
		_ = recover() //nolint:errcheck // losing a cache store is safe
	}()
	if err := fault.Err(fault.SiteCachePut); err != nil {
		return
	}
	s.cache.put(key, res, size)
}

// ResultPayload returns key's wire payload and checksum from the memory
// or disk tier: what a sibling's ring Fetch and the anti-entropy pull
// receive. A memory hit is encoded on the way out; a disk hit is served
// frame-verified, without decoding. A malformed key is ErrBadKey.
func (s *Server) ResultPayload(key string) ([]byte, string, error) {
	if !validKey(key) {
		return nil, "", ErrBadKey
	}
	if res, ok := s.cache.get(key); ok {
		return EncodeWireResult(res)
	}
	if s.store == nil {
		return nil, "", os.ErrNotExist
	}
	payload, err := s.store.ReadResult(key)
	if err != nil {
		return nil, "", err
	}
	return payload, WireChecksum(payload), nil
}

// IngestResult verifies and persists a payload a sibling sent (a
// replication push or an anti-entropy repair): key shape, checksum,
// then a structural check, then the framed segment write. Memory is
// left alone — a replica is insurance for the ring, not working set.
func (s *Server) IngestResult(key string, payload []byte, checksum string) error {
	if !validKey(key) {
		return ErrBadKey
	}
	if s.store == nil {
		return fmt.Errorf("serve: no durable store")
	}
	if got := WireChecksum(payload); got != checksum {
		return fmt.Errorf("serve: result checksum mismatch (got %.12s, want %.12s)", got, checksum)
	}
	var w WireResult
	if err := w.UnmarshalBinary(payload); err != nil {
		return err
	}
	return s.store.WriteResult(key, payload)
}

// ResultDigests maps every key in the disk tier to the SHA-256 of its
// verified payload (empty for corrupt segments — visible as divergent,
// never trusted). The anti-entropy pass exchanges these maps between
// ring owners.
func (s *Server) ResultDigests() (map[string]string, error) {
	if s.store == nil {
		return nil, fmt.Errorf("serve: no durable store")
	}
	return s.store.ResultDigests()
}

// resultCache is the memory tier: decoded results evicted LRU under a
// byte budget. An entry's size is its wire payload's length, so the
// budget tracks the bytes the result occupies everywhere else. Hit and
// miss accounting is left to the caller, because a cache miss that
// coalesces onto an in-flight execution still counts as a hit at the
// service level.
type resultCache struct {
	*lru[*optiwise.Result]
}

// newResultCache builds a cache with the given byte budget. A zero or
// negative budget disables caching entirely (Get always misses, Put is
// a no-op), which keeps the service correct for memory-constrained
// deployments.
func newResultCache(budget int64, reg *obs.Registry) resultCache {
	return resultCache{newLRU[*optiwise.Result](budget,
		reg.Counter(obs.MServeCacheEvictions), reg.Gauge(obs.MServeCacheBytes))}
}

// put stores res under key at the given size (see lru.put). Nil and
// degraded results are refused unconditionally — defense in
// depth behind the runGroup success check: a degraded (single-pass)
// profile under a full profile's digest would poison every later
// submission of the same job (DESIGN.md §8).
func (c resultCache) put(key string, res *optiwise.Result, size int64) {
	if res == nil || res.Degraded {
		return
	}
	c.lru.put(key, res, size)
}

// lru is a map evicted least-recently-used under a byte budget: the
// result cache's memory tier and the program memo. Sizes are the
// caller's; an entry larger than the whole budget is not stored at all
// (storing it would immediately evict everything else for one entry),
// and a zero or negative budget stores nothing.
type lru[V any] struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	order  *list.List // front = most recently used; values are *lruEntry[V]
	byKey  map[string]*list.Element

	// Optional (nil-safe) metrics: evictions and the byte footprint.
	evictions *obs.CounterMetric
	size      *obs.GaugeMetric
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newLRU[V any](budget int64, evictions *obs.CounterMetric, size *obs.GaugeMetric) *lru[V] {
	return &lru[V]{
		budget:    budget,
		order:     list.New(),
		byKey:     make(map[string]*list.Element),
		evictions: evictions,
		size:      size,
	}
}

// get returns the value stored under key, refreshing its recency.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key at the given size, evicting least-recently-
// used entries until the byte budget holds.
func (c *lru[V]) put(key string, val V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 || size > c.budget {
		return
	}
	if el, ok := c.byKey[key]; ok {
		// Replace in place (keys are content digests, so the value is
		// equivalent, but refresh anyway so sizes stay consistent).
		ent := el.Value.(*lruEntry[V])
		c.bytes += size - ent.size
		ent.val, ent.size = val, size
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.bytes > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*lruEntry[V])
		c.order.Remove(back)
		delete(c.byKey, ent.key)
		c.bytes -= ent.size
		c.evictions.Inc()
	}
	c.size.Set(c.bytes)
}

// len reports the number of entries.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// usedBytes reports the current byte footprint.
func (c *lru[V]) usedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
