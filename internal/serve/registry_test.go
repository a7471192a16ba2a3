package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sptensor"
)

// cacheUnderTest is one registry as the shared policy tests drive it: add
// makes the entry of a seed resident, reporting its ID and whether it
// deduped onto a resident copy; the rest reach the registry's lru.
type cacheUnderTest struct {
	add    func(seed int64) (id string, cached bool)
	pin    func(id string) error
	unpin  func(id string)
	remove func(id string) error
	lookup func(id string) bool
	size   func(id string) int64 // a resident entry's bytes
	list   func() []string       // the IDs List returns, in its order
	stats  func() CacheStats
}

// driveLRU adapts c, whose views yield their entry's ID and bytes, to the
// policy tests.
func driveLRU[V, I any](c *lru[V, I], view func(I) (string, int64),
	add func(seed int64) (string, bool)) cacheUnderTest {

	return cacheUnderTest{
		add:    add,
		pin:    func(id string) error { _, err := c.Pin(id); return err },
		unpin:  c.Unpin,
		remove: c.Remove,
		lookup: func(id string) bool { _, ok := c.Lookup(id); return ok },
		size: func(id string) int64 {
			in, _ := c.Lookup(id)
			_, n := view(in)
			return n
		},
		list: func() []string {
			var ids []string
			for _, in := range c.List() {
				id, _ := view(in)
				ids = append(ids, id)
			}
			return ids
		},
		stats: c.Stats,
	}
}

// registryKinds are the two registries built on lru, with the errors
// their Pin and Remove wrap and the noun those errors print before the ID.
var registryKinds = []struct {
	name             string
	notFound, pinned error
	noun             string
	open             func(t *testing.T, maxEntries int, maxBytes int64) cacheUnderTest
}{
	{"tensor", ErrTensorNotFound, ErrTensorPinned, "", func(t *testing.T, maxEntries int, maxBytes int64) cacheUnderTest {
		rg := NewRegistry(maxEntries, maxBytes)
		return driveLRU(rg.lru, func(in TensorInfo) (string, int64) { return in.ID, in.Bytes },
			func(seed int64) (string, bool) {
				res, err := rg.Ingest(bytes.NewReader(regTNS(t, seed)), 1<<20, 0)
				if err != nil {
					t.Errorf("Ingest(seed %d): %v", seed, err)
				}
				return res.ID, res.Cached
			})
	}},
	{"model", errModelNotFound, errModelPinned, "model ", func(t *testing.T, maxEntries int, maxBytes int64) cacheUnderTest {
		mr := newModelRegistry(maxEntries, maxBytes)
		return driveLRU(mr.lru, func(in model.Info) (string, int64) { return in.ID, in.Bytes },
			func(seed int64) (string, bool) {
				info, cached := mr.Publish(regModel(t, seed), "", "")
				return info.ID, cached
			})
	}},
}

// regTNS is the .tns upload of a small random tensor.
func regTNS(t *testing.T, seed int64) []byte {
	var buf bytes.Buffer
	if err := sptensor.WriteTNS(&buf, sptensor.Random([]int{10, 10, 10}, 50, seed)); err != nil {
		t.Errorf("WriteTNS: %v", err)
	}
	return buf.Bytes()
}

func regModel(t *testing.T, seed int64) *model.Model {
	t.Helper()
	m, err := model.Build(core.NewRandomKruskal([]int{20, 10, 5}, 4, seed))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// TestRegistryLRU pins the eviction order of both registries: the least
// recently used entry goes first and a Pin counts as a use; re-adding a
// resident entry dedupes and counts a hit, and re-adding an evicted one is
// a miss again.
func TestRegistryLRU(t *testing.T) {
	for _, k := range registryKinds {
		t.Run(k.name, func(t *testing.T) {
			c := k.open(t, 2, 0)
			a, _ := c.add(1)
			b, _ := c.add(2)
			// Use a so b is the LRU victim.
			if err := c.pin(a); err != nil {
				t.Fatal(err)
			}
			c.unpin(a)
			third, _ := c.add(3)
			if c.lookup(b) {
				t.Fatal("LRU entry b survived eviction")
			}
			if !c.lookup(a) {
				t.Fatal("recently used entry a evicted")
			}
			if st := c.stats(); st.Evictions != 1 || st.Entries != 2 ||
				st.Bytes != c.size(a)+c.size(third) {
				t.Fatalf("stats after eviction: %+v", st)
			}

			if id, cached := c.add(1); !cached || id != a {
				t.Fatalf("re-adding resident a: id %s cached %v", shortID(id), cached)
			}
			if _, cached := c.add(2); cached {
				t.Fatal("evicted entry b reported cached")
			}
			if c.lookup(third) {
				t.Fatal("entry 3, least recently used after a's hit, survived")
			}
			if st := c.stats(); st.Hits != 1 || st.Misses != 4 || st.Evictions != 2 || st.Entries != 2 {
				t.Fatalf("counters: %+v", st)
			}
		})
	}
}

// TestRegistryPinBlocksEviction pins over both registries that a pinned
// entry survives budget pressure and refuses removal until unpinned, that
// the newest entry stays when every older one is pinned, and that a
// removal is not an eviction.
func TestRegistryPinBlocksEviction(t *testing.T) {
	for _, k := range registryKinds {
		t.Run(k.name, func(t *testing.T) {
			c := k.open(t, 2, 0)
			a, _ := c.add(1)
			if err := c.pin(a); err != nil {
				t.Fatal(err)
			}
			b, _ := c.add(2)
			c.add(3) // a is LRU but pinned; b must go instead
			if !c.lookup(a) {
				t.Fatal("pinned entry evicted")
			}
			if c.lookup(b) {
				t.Fatal("unpinned entry b survived in place of the pinned one")
			}
			if err := c.remove(a); !errors.Is(err, k.pinned) {
				t.Fatalf("Remove of pinned entry: %v, want %v", err, k.pinned)
			}
			c.unpin(a)
			before, size := c.stats(), c.size(a)
			if err := c.remove(a); err != nil {
				t.Fatalf("Remove after unpin: %v", err)
			}
			if st := c.stats(); st.Evictions != before.Evictions ||
				st.Entries != before.Entries-1 || st.Bytes != before.Bytes-size {
				t.Fatalf("stats after Remove: %+v, before %+v (entry of %d bytes)", st, before, size)
			}
			if err := c.remove(a); !errors.Is(err, k.notFound) {
				t.Fatalf("double Remove: %v, want %v", err, k.notFound)
			}
			err := c.pin("no-such-id")
			if want := k.notFound.Error() + ": " + k.noun + "no-such-id"; err == nil || err.Error() != want {
				t.Fatalf("Pin of unknown id: %v, want %q", err, want)
			}

			// A one-entry budget keeps both the pinned entry and the newest.
			one := k.open(t, 1, 0)
			x, _ := one.add(4)
			if err := one.pin(x); err != nil {
				t.Fatal(err)
			}
			y, _ := one.add(5)
			if !one.lookup(x) || !one.lookup(y) {
				t.Fatalf("pinned %v, newest %v: want both resident", one.lookup(x), one.lookup(y))
			}
			if st := one.stats(); st.Entries != 2 || st.Evictions != 0 {
				t.Fatalf("stats over budget with a pin: %+v", st)
			}
			one.unpin(x)
		})
	}
}

// TestRegistryByteBudget pins the byte budget of both registries: the
// least recently used entries go until the resident bytes fit, and the
// newest entry stays even when it alone is over the budget.
func TestRegistryByteBudget(t *testing.T) {
	for _, k := range registryKinds {
		t.Run(k.name, func(t *testing.T) {
			probe := k.open(t, 100, 0)
			a, _ := probe.add(1)
			c := k.open(t, 100, probe.size(a)+1) // room for one entry only
			c.add(1)
			b, _ := c.add(2)
			if st := c.stats(); st.Entries != 1 || st.Evictions != 1 || st.Bytes != c.size(b) {
				t.Fatalf("byte budget not enforced: %+v", st)
			}

			tiny := k.open(t, 100, 1)
			first, _ := tiny.add(1)
			if !tiny.lookup(first) {
				t.Fatal("the newest entry was evicted for being over the budget alone")
			}
			second, _ := tiny.add(2)
			if tiny.lookup(first) || !tiny.lookup(second) {
				t.Fatal("an older entry outlived the newest over the byte budget")
			}
		})
	}
}

// TestRegistryListDeterministic pins the listing order of both
// registries: the order entries became resident, whatever their recency.
func TestRegistryListDeterministic(t *testing.T) {
	for _, k := range registryKinds {
		t.Run(k.name, func(t *testing.T) {
			c := k.open(t, 8, 0)
			var ids []string
			for seed := int64(1); seed <= 4; seed++ {
				id, _ := c.add(seed)
				ids = append(ids, id)
			}
			// Recency churn must not reorder the listing.
			if err := c.pin(ids[2]); err != nil {
				t.Fatal(err)
			}
			c.unpin(ids[2])
			if got := c.list(); !slices.Equal(got, ids) {
				t.Fatalf("listing order %v, want %v", got, ids)
			}
		})
	}
}

func TestRegistryPublishDedupes(t *testing.T) {
	rg := newModelRegistry(8, 0)
	m := regModel(t, 1)
	info, cached := rg.Publish(m, "tensor-a", "job-1")
	if cached {
		t.Fatal("first publish reported cached")
	}
	if info.ID != m.ID() || info.TensorID != "tensor-a" || info.JobID != "job-1" {
		t.Fatalf("bad info: %+v", info)
	}
	dup, cached := rg.Publish(regModel(t, 1), "tensor-a", "job-2")
	if !cached {
		t.Fatal("identical content not deduped")
	}
	if dup.JobID != "job-1" {
		t.Fatalf("dedupe replaced provenance: %+v", dup)
	}
	if st := rg.Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after dedupe: %+v", st)
	}
}

// TestRegistryConcurrentQueryEvictChurn hammers Publish/Pin/Unpin/Remove
// from many goroutines — the race detector backs the registry's locking
// discipline (run under -race in CI).
func TestRegistryConcurrentQueryEvictChurn(t *testing.T) {
	rg := newModelRegistry(2, 0)
	models := make([]*model.Model, 6)
	for i := range models {
		models[i] = regModel(t, int64(i+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := model.NewWorkspace()
			for i := 0; i < 200; i++ {
				m := models[(g+i)%len(models)]
				rg.Publish(m, "", "")
				if pinned, err := rg.Pin(m.ID()); err == nil {
					if _, qerr := pinned.TopK(ws, 0, []int{0, 1, 2}, 3, nil); qerr != nil {
						t.Errorf("query under churn: %v", qerr)
					}
					rg.Unpin(m.ID())
				}
				if i%7 == 0 {
					_ = rg.Remove(m.ID()) // pinned or not found are both fine
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLatestForTensors pins the auto warm-start resolution: the newest
// publish whose provenance tensor is in the ancestor set wins, and models
// from unrelated tensors are invisible.
func TestLatestForTensors(t *testing.T) {
	rg := newModelRegistry(8, 0)
	old, _ := rg.Publish(regModel(t, 1), "rev-0", "job-1")
	time.Sleep(time.Millisecond) // publish times must order
	newer, _ := rg.Publish(regModel(t, 2), "rev-1", "job-2")
	time.Sleep(time.Millisecond)
	rg.Publish(regModel(t, 3), "other-tensor", "job-3")

	got, ok := rg.LatestForTensors([]string{"rev-2", "rev-1", "rev-0"})
	if !ok || got.ID != newer.ID {
		t.Fatalf("LatestForTensors = %+v ok=%v, want %s", got, ok, newer.ID)
	}
	got, ok = rg.LatestForTensors([]string{"rev-0"})
	if !ok || got.ID != old.ID {
		t.Fatalf("root-only lookup = %+v ok=%v, want %s", got, ok, old.ID)
	}
	if _, ok := rg.LatestForTensors([]string{"unknown"}); ok {
		t.Fatal("lookup for unknown tensors reported a model")
	}
	if _, ok := rg.LatestForTensors(nil); ok {
		t.Fatal("empty ancestor set reported a model")
	}
}

// TestMetricsCacheKeys pins the keys, and their order, of the /v1/metrics
// objects "cache" (the tensor registry) and "models".
func TestMetricsCacheKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	policy := []string{"entries", "bytes", "max_entries", "max_bytes", "hits", "misses", "evictions"}
	for name, want := range map[string][]string{
		"cache":  append(slices.Clone(policy), "ingest_seconds", "appends", "append_seconds"),
		"models": policy,
	} {
		if got := objectKeys(t, doc[name]); !slices.Equal(got, want) {
			t.Errorf("/v1/metrics %q keys %v, want %v", name, got, want)
		}
	}
}

// objectKeys returns the keys of a JSON object in document order.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
