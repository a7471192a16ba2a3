package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/model"
	"repro/internal/sptensor"
)

// ErrTensorPinned is returned by Remove for a tensor held by active jobs.
var ErrTensorPinned = errors.New("serve: tensor pinned by active jobs")

// ErrTensorNotFound is returned for tensors that are not resident.
var ErrTensorNotFound = errors.New("serve: tensor not resident (evicted or never uploaded)")

// Registry is the content-addressed tensor cache: uploads are keyed by the
// SHA-256 of their bytes, so re-submitting the same tensor (in either the
// .tns or binary encoding) skips parsing and preprocessing entirely and
// the decomposition engines see a resident *sptensor.Tensor. Entries are
// evicted least-recently-used once the configured entry or byte budget is
// exceeded; an entry pinned by a queued or running job is never evicted.
// The cache's lock also guards the counters and the lineage index.
type Registry struct {
	*lru[*sptensor.Tensor, TensorInfo]

	ingestSeconds float64 // cumulative cold-ingest (hash+parse) time
	appends       int64
	appendSeconds float64 // cumulative append (parse+merge+hash) time

	// lineage records revision provenance (parent/root/seq) for every
	// tensor the registry has ever published, resident or not, so
	// provenance chains stay queryable after eviction. Bounded by
	// maxLineage; oldest records are pruned first.
	lineage      map[string]*revRecord
	lineageOrder []string
}

// maxLineage bounds the provenance index. 4096 records ≈ a few hundred KB;
// far beyond it the oldest chains are of archaeological interest only.
const maxLineage = 4096

// revRecord is one revision's provenance: enough to reconstruct the chain
// and the per-append deltas without keeping the tensors resident.
type revRecord struct {
	id      string
	parent  string // "" for root uploads
	root    string // first revision of the chain (self for uploads)
	seq     int    // 0 for uploads, parent.seq+1 for appends
	dims    []int
	nnz     int
	added   int // batch nonzeros accepted by the append (0 for uploads)
	merged  int // duplicates merged during the append
	created time.Time
}

// NewRegistry creates a registry bounded by maxEntries resident tensors
// and maxBytes of estimated tensor memory (<= 0 disables that bound).
func NewRegistry(maxEntries int, maxBytes int64) *Registry {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &Registry{
		lru: newLRU[*sptensor.Tensor](maxEntries, maxBytes,
			func(in TensorInfo) time.Time { return in.Uploaded },
			ErrTensorNotFound, ErrTensorPinned, ""),
		lineage: make(map[string]*revRecord),
	}
}

// recordLineageLocked publishes one revision's provenance record. Idempotent
// for re-uploads of the same bytes; prunes the oldest records beyond
// maxLineage.
func (rg *Registry) recordLineageLocked(rec *revRecord) {
	if _, ok := rg.lineage[rec.id]; ok {
		return
	}
	rg.lineage[rec.id] = rec
	rg.lineageOrder = append(rg.lineageOrder, rec.id)
	for len(rg.lineage) > maxLineage && len(rg.lineageOrder) > 0 {
		oldest := rg.lineageOrder[0]
		rg.lineageOrder = rg.lineageOrder[1:]
		delete(rg.lineage, oldest)
	}
}

// tensorBytes estimates the resident footprint of a parsed tensor: one
// float64 plus one int32 index per mode for every nonzero.
func tensorBytes(t *sptensor.Tensor) int64 {
	return int64(t.NNZ()) * int64(8+4*t.NModes())
}

// IngestResult describes the outcome of one upload. The JSON field names
// match the rest of the lowercase /v1 surface (and the `jq -r .id`
// recipes in README/EXPERIMENTS).
type IngestResult struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"` // true when the bytes matched a resident tensor (no parse)
	Dims   []int  `json:"dims"`
	NNZ    int    `json:"nnz"`
}

// Ingest hashes and (on a cache miss) parses one upload from r, which is
// read at most once and never spooled to disk. maxUpload bounds the
// accepted body size; maxModeLen (<= 0 disables) rejects tensors with an
// over-long mode *before* the entry is published, so no concurrent job
// submission can ever reference a rejected tensor. The parse happens
// outside the registry lock, so slow uploads do not serialize lookups.
func (rg *Registry) Ingest(r io.Reader, maxUpload int64, maxModeLen int) (IngestResult, error) {
	start := time.Now()
	h := sha256.New()
	var buf bytes.Buffer
	n, err := io.Copy(io.MultiWriter(h, &buf), io.LimitReader(r, maxUpload+1))
	if err != nil {
		return IngestResult{}, fmt.Errorf("serve: reading upload: %w", err)
	}
	if n > maxUpload {
		return IngestResult{}, fmt.Errorf("serve: upload exceeds %d-byte limit", maxUpload)
	}
	id := hex.EncodeToString(h.Sum(nil))

	rg.mu.Lock()
	hit := rg.useLocked(id)
	rg.mu.Unlock()
	if hit != nil {
		return IngestResult{ID: id, Cached: true, Dims: hit.val.Dims, NNZ: hit.val.NNZ()}, nil
	}

	t, err := sptensor.LoadTensorReader(&buf)
	if err != nil {
		return IngestResult{}, err
	}
	if maxModeLen > 0 {
		for m, d := range t.Dims {
			if d > maxModeLen {
				return IngestResult{}, fmt.Errorf("serve: mode %d length %d exceeds limit %d", m, d, maxModeLen)
			}
		}
	}

	rg.mu.Lock()
	defer rg.mu.Unlock()
	rg.ingestSeconds += time.Since(start).Seconds()
	if won := rg.touchLocked(id); won != nil {
		// A concurrent upload of the same bytes won the race; keep its copy.
		return IngestResult{ID: id, Cached: true, Dims: won.val.Dims, NNZ: won.val.NNZ()}, nil
	}
	info := TensorInfo{ID: id, Dims: t.Dims, NNZ: t.NNZ(), Bytes: tensorBytes(t), Uploaded: time.Now()}
	rg.addLocked(id, t, info, info.Bytes)
	rg.recordLineageLocked(&revRecord{
		id: id, root: id, dims: append([]int(nil), t.Dims...),
		nnz: t.NNZ(), created: info.Uploaded,
	})
	return IngestResult{ID: id, Cached: false, Dims: t.Dims, NNZ: t.NNZ()}, nil
}

// TensorInfo is the JSON view of one resident tensor.
type TensorInfo struct {
	ID       string    `json:"id"`
	Dims     []int     `json:"dims"`
	NNZ      int       `json:"nnz"`
	Bytes    int64     `json:"bytes"`
	Uploaded time.Time `json:"uploaded"`
	Parent   string    `json:"parent,omitempty"`
}

// TensorCacheStats is the /v1/metrics view of the tensor registry: its
// cache counters and what ingest and append cost.
type TensorCacheStats struct {
	CacheStats
	IngestSeconds float64 `json:"ingest_seconds"`
	Appends       int64   `json:"appends"`
	AppendSeconds float64 `json:"append_seconds"`
}

// Stats snapshots the registry counters.
func (rg *Registry) Stats() TensorCacheStats {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return TensorCacheStats{
		CacheStats:    rg.st,
		IngestSeconds: rg.ingestSeconds,
		Appends:       rg.appends,
		AppendSeconds: rg.appendSeconds,
	}
}

// errModelPinned is returned by Remove for a model held by an in-flight
// query.
var errModelPinned = errors.New("model: pinned by in-flight queries")

// errModelNotFound is returned for models that are not resident.
var errModelNotFound = errors.New("model: not resident (evicted, deleted, or never published)")

// modelRegistry is the content-addressed model cache, the serving
// counterpart of the tensor registry: models are keyed by the SHA-256 of
// their source Kruskal encoding, so publishing the same factors twice
// dedupes, and every query pins the model it reads.
type modelRegistry struct {
	*lru[*model.Model, model.Info]
}

// newModelRegistry creates a registry bounded by maxEntries resident
// models and maxBytes of estimated model memory (<= 0 disables that
// bound).
func newModelRegistry(maxEntries int, maxBytes int64) *modelRegistry {
	return &modelRegistry{newLRU[*model.Model](maxEntries, maxBytes,
		func(in model.Info) time.Time { return in.Published },
		errModelNotFound, errModelPinned, "model ")}
}

// Publish makes m resident, or refreshes the resident copy when the same
// content is already published (the bool reports that dedupe, which keeps
// the first publish's provenance). tensorID and jobID record provenance
// for jobs that publish their result.
func (mr *modelRegistry) Publish(m *model.Model, tensorID, jobID string) (model.Info, bool) {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if hit := mr.useLocked(m.ID()); hit != nil {
		return hit.view, true
	}
	info := model.Info{
		ID: m.ID(), Dims: m.Dims(), Rank: m.Rank(), Bytes: m.Bytes(),
		Published: time.Now(), TensorID: tensorID, JobID: jobID,
	}
	mr.addLocked(m.ID(), m, info, info.Bytes)
	return info, false
}

// LatestForTensors returns the most recently published resident model
// whose provenance tensor is in ids — the auto warm-start resolution:
// given an appended revision's ancestor chain, pick the newest model
// computed from any revision in that lineage. Ties on publish time break
// toward the larger ID so the choice is deterministic.
func (mr *modelRegistry) LatestForTensors(ids []string) (model.Info, bool) {
	infos := mr.List()
	for i := len(infos) - 1; i >= 0; i-- {
		if slices.Contains(ids, infos[i].TensorID) {
			return infos[i], true
		}
	}
	return model.Info{}, false
}
