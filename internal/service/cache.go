package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"

	"repro/internal/pipeline"
)

// Key is the content address of one request: the SHA-256 of its canonical
// encoding (source, machine, level, options, input — everything the
// result is a pure function of).
type Key [sha256.Size]byte

// keyBuilder accumulates request fields into a SHA-256 with unambiguous
// framing: every field is length- or width-prefixed so adjacent fields
// cannot alias ("ab"+"c" vs "a"+"bc").
type keyBuilder struct{ h hash.Hash }

func newKeyBuilder(kind string) *keyBuilder {
	b := &keyBuilder{h: sha256.New()}
	b.str(kind)
	return b
}

func (b *keyBuilder) str(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	b.h.Write(n[:])
	b.h.Write([]byte(s))
}

func (b *keyBuilder) int(v int64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	b.h.Write(n[:])
}

func (b *keyBuilder) bool(v bool) {
	if v {
		b.h.Write([]byte{1})
	} else {
		b.h.Write([]byte{0})
	}
}

// config folds a resolved pipeline configuration into the key. The
// machine enters by its canonical name, never by the request's spelling,
// so aliases, letter case and defaults share one entry. Every exported
// field of pipeline.Config and replicate.Options is either hashed here or
// listed as output-neutral in TestKeyCoversConfig.
func (b *keyBuilder) config(c pipeline.Config) {
	b.str(c.Machine.Name)
	b.int(int64(c.Level))
	b.bool(c.VerifyEach)
	b.bool(c.TV)
	r := c.Replication
	b.int(int64(r.Heuristic))
	b.int(int64(r.MaxSeqRTLs))
	b.bool(r.AllowIndirect)
	b.bool(r.NoLoopCompletion)
	b.int(int64(r.MaxFuncRTLs))
	b.int(int64(r.Engine))
	b.bool(r.ForceKeepIrreducible)
	b.bool(r.ForceRollback)
}

func (b *keyBuilder) sum() Key {
	var k Key
	b.h.Sum(k[:0])
	return k
}

// centry is one cache slot; the LRU list element's Value points here.
type centry struct {
	key Key
	val any
}

// Cache is a content-addressed result cache with LRU eviction. Values are
// stored by reference and must be treated as immutable by all readers
// (the service hands out shallow copies of response structs instead of
// mutating cached ones).
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// DefaultCacheEntries bounds the cache when the configuration does not.
const DefaultCacheEntries = 1024

// NewCache returns a cache holding at most max entries (<= 0 means
// DefaultCacheEntries).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{max: max, entries: make(map[Key]*list.Element), lru: list.New()}
}

// Get returns the cached value for k and marks it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*centry).val, true
}

// Put stores v under k, evicting the least recently used entry when full.
// Storing an existing key refreshes its value and recency.
func (c *Cache) Put(k Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*centry).val = v
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*centry).key)
		c.evictions.Add(1)
	}
	c.entries[k] = c.lru.PushFront(&centry{key: k, val: v})
}

// Len is the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Hits is the number of Get calls that found an entry.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses is the number of Get calls that found nothing.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions is the number of entries displaced by Put.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }
