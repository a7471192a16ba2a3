package serve

import (
	"cmp"
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// lru is the residency policy the tensor and model registries share:
// values keyed by content hash, bounded by an entry budget and an
// optional byte budget, and evicted least recently used first. A pinned
// value is never evicted or removed, and the most recently used one is
// never evicted. Each value is stored with its JSON view I, fixed when it
// is added.
//
// The exported methods take mu. The *Locked ones expect the caller to
// hold it, so that a registry can make a cache step and its own
// bookkeeping one critical section.
type lru[V, I any] struct {
	mu    sync.Mutex
	items map[string]*lruItem[V, I]
	order *list.List // of *lruItem[V, I], most recently used at the front
	st    CacheStats

	// added reads from a view the time its value became resident, which
	// orders List.
	added func(I) time.Time
	// notFound and pinned are the errors Pin and Remove wrap; noun and
	// the short ID follow them in the message.
	notFound, pinned error
	noun             string
}

// lruItem is one resident value.
type lruItem[V, I any] struct {
	id    string
	val   V
	view  I
	bytes int64
	pins  int // Pin references not yet released
	elem  *list.Element
}

// CacheStats is the /v1/metrics view of one registry's cache.
type CacheStats struct {
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	MaxEntries int   `json:"max_entries"`
	MaxBytes   int64 `json:"max_bytes"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
}

// newLRU creates a cache bounded by maxEntries values and maxBytes of
// their estimated memory (<= 0 disables that bound).
func newLRU[V, I any](maxEntries int, maxBytes int64, added func(I) time.Time,
	notFound, pinned error, noun string) *lru[V, I] {

	return &lru[V, I]{
		items:    make(map[string]*lruItem[V, I]),
		order:    list.New(),
		st:       CacheStats{MaxEntries: maxEntries, MaxBytes: maxBytes},
		added:    added,
		notFound: notFound,
		pinned:   pinned,
		noun:     noun,
	}
}

// touchLocked returns the resident item for id, now the most recently
// used, or nil.
func (c *lru[V, I]) touchLocked(id string) *lruItem[V, I] {
	it := c.items[id]
	if it != nil {
		c.order.MoveToFront(it.elem)
	}
	return it
}

// useLocked is touchLocked that counts a hit, or a miss when id is not
// resident.
func (c *lru[V, I]) useLocked(id string) *lruItem[V, I] {
	it := c.touchLocked(id)
	if it != nil {
		c.st.Hits++
	} else {
		c.st.Misses++
	}
	return it
}

// addLocked makes val resident under id as the most recently used value,
// then evicts down to the budgets.
func (c *lru[V, I]) addLocked(id string, val V, view I, bytes int64) {
	it := &lruItem[V, I]{id: id, val: val, view: view, bytes: bytes}
	it.elem = c.order.PushFront(it)
	c.items[id] = it
	c.st.Entries++
	c.st.Bytes += bytes
	c.evictLocked()
}

// evictLocked drops least-recently-used unpinned values until both
// budgets are met. The newest value is never evicted.
func (c *lru[V, I]) evictLocked() {
	over := func() bool {
		return c.st.Entries > c.st.MaxEntries || (c.st.MaxBytes > 0 && c.st.Bytes > c.st.MaxBytes)
	}
	elem := c.order.Back()
	for over() && elem != nil && elem != c.order.Front() {
		prev := elem.Prev()
		if it := elem.Value.(*lruItem[V, I]); it.pins == 0 {
			c.dropLocked(it)
			c.st.Evictions++
		}
		elem = prev
	}
}

// dropLocked makes it no longer resident.
func (c *lru[V, I]) dropLocked(it *lruItem[V, I]) {
	c.order.Remove(it.elem)
	delete(c.items, it.id)
	c.st.Entries--
	c.st.Bytes -= it.bytes
}

// errorf wraps err with the value's noun and short ID.
func (c *lru[V, I]) errorf(err error, id string) error {
	return fmt.Errorf("%w: %s%s", err, c.noun, shortID(id))
}

// Pin looks up a value by ID, bumps its recency, and pins it against
// eviction and removal until the matching Unpin.
func (c *lru[V, I]) Pin(id string) (V, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it := c.touchLocked(id)
	if it == nil {
		var zero V
		return zero, c.errorf(c.notFound, id)
	}
	it.pins++
	return it.val, nil
}

// Unpin releases one Pin reference.
func (c *lru[V, I]) Unpin(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it := c.items[id]; it != nil && it.pins > 0 {
		it.pins--
	}
}

// Remove drops a resident value, which does not count as an eviction. It
// fails with the not-found error for an unknown ID and the pinned error
// while a Pin holds the value.
func (c *lru[V, I]) Remove(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch it := c.items[id]; {
	case it == nil:
		return c.errorf(c.notFound, id)
	case it.pins > 0:
		return c.errorf(c.pinned, id)
	default:
		c.dropLocked(it)
		return nil
	}
}

// Lookup returns a resident value's view without pinning it or bumping
// its recency.
func (c *lru[V, I]) Lookup(id string) (I, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it := c.items[id]; it != nil {
		return it.view, true
	}
	var zero I
	return zero, false
}

// List returns the view of every resident value in the order the values
// became resident, ties broken by ID: stable under LRU churn, so
// paginated listings do not skip or repeat entries between pages.
func (c *lru[V, I]) List() []I {
	c.mu.Lock()
	items := make([]*lruItem[V, I], 0, len(c.items))
	for _, it := range c.items {
		items = append(items, it)
	}
	c.mu.Unlock()
	slices.SortFunc(items, func(a, b *lruItem[V, I]) int {
		return cmp.Or(c.added(a.view).Compare(c.added(b.view)), strings.Compare(a.id, b.id))
	})
	views := make([]I, len(items))
	for i, it := range items {
		views[i] = it.view
	}
	return views
}

// Stats snapshots the cache's counters.
func (c *lru[V, I]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// shortID abbreviates a content hash for error messages and logs.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
