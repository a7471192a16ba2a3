package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"repro/internal/sptensor"
)

// AppendResult describes one accepted append: the new revision's content
// address plus the delta bookkeeping the client needs to reason about the
// merge (how many batch nonzeros landed, how many collapsed into existing
// coordinates).
type AppendResult struct {
	ID               string `json:"id"`
	Parent           string `json:"parent"`
	Cached           bool   `json:"cached"` // merged bytes matched a resident revision
	Dims             []int  `json:"dims"`
	NNZ              int    `json:"nnz"`
	AddedNNZ         int    `json:"added_nnz"`
	MergedDuplicates int    `json:"merged_duplicates"`
}

// Append merges a batch of nonzeros from r into the resident tensor id,
// publishing the result as a new revision whose provenance records id as
// its parent. The base tensor is never mutated — running jobs pinned to it
// keep their snapshot — and the revision ID is the SHA-256 of the merged
// tensor's canonical binary encoding, so identical evolution paths dedupe
// exactly like identical uploads. The batch goes through the same
// untrusted-input gauntlet as POST: byte limit, full parse validation, and
// the per-mode length cap applied to the grown dims before the revision is
// published.
func (rg *Registry) Append(id string, r io.Reader, maxUpload int64, maxModeLen int) (AppendResult, error) {
	start := time.Now()
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(r, maxUpload+1))
	if err != nil {
		return AppendResult{}, fmt.Errorf("serve: reading append batch: %w", err)
	}
	if n > maxUpload {
		return AppendResult{}, fmt.Errorf("serve: append batch exceeds %d-byte limit", maxUpload)
	}

	rg.mu.Lock()
	parent := rg.touchLocked(id)
	rg.mu.Unlock()
	if parent == nil {
		return AppendResult{}, rg.errorf(ErrTensorNotFound, id)
	}
	base := parent.val // immutable once resident; safe to read outside the lock

	batch, err := sptensor.LoadTensorReader(&buf)
	if err != nil {
		return AppendResult{}, err
	}
	merged, dups, err := sptensor.AppendBatch(base, batch)
	if err != nil {
		return AppendResult{}, err
	}
	if maxModeLen > 0 {
		for m, d := range merged.Dims {
			if d > maxModeLen {
				return AppendResult{}, fmt.Errorf("serve: appended mode %d length %d exceeds limit %d", m, d, maxModeLen)
			}
		}
	}

	// Content-address the merged tensor by its canonical binary encoding:
	// the same evolved state reached along any path hashes identically.
	h := sha256.New()
	if err := sptensor.WriteBinary(h, merged); err != nil {
		return AppendResult{}, fmt.Errorf("serve: hashing revision: %w", err)
	}
	revID := hex.EncodeToString(h.Sum(nil))

	res := AppendResult{
		ID: revID, Parent: id, Dims: merged.Dims, NNZ: merged.NNZ(),
		AddedNNZ: batch.NNZ(), MergedDuplicates: dups,
	}

	rg.mu.Lock()
	defer rg.mu.Unlock()
	rg.appends++
	rg.appendSeconds += time.Since(start).Seconds()
	if prev := rg.touchLocked(revID); prev != nil {
		res.Cached = true
		res.Dims = prev.val.Dims
		res.NNZ = prev.val.NNZ()
		return res, nil
	}
	info := TensorInfo{
		ID: revID, Dims: merged.Dims, NNZ: merged.NNZ(), Bytes: tensorBytes(merged),
		Uploaded: time.Now(), Parent: id,
	}
	rg.addLocked(revID, merged, info, info.Bytes)

	rec := &revRecord{
		id: revID, parent: id, root: id, seq: 1,
		dims: append([]int(nil), merged.Dims...), nnz: merged.NNZ(),
		added: batch.NNZ(), merged: dups, created: info.Uploaded,
	}
	if pr, ok := rg.lineage[id]; ok {
		rec.root = pr.root
		rec.seq = pr.seq + 1
	}
	rg.recordLineageLocked(rec)
	return res, nil
}

// RevisionInfo is the JSON view of one revision in a provenance chain.
type RevisionInfo struct {
	ID               string    `json:"id"`
	Parent           string    `json:"parent,omitempty"`
	Root             string    `json:"root"`
	Seq              int       `json:"seq"`
	Dims             []int     `json:"dims"`
	NNZ              int       `json:"nnz"`
	AddedNNZ         int       `json:"added_nnz,omitempty"`
	MergedDuplicates int       `json:"merged_duplicates,omitempty"`
	Resident         bool      `json:"resident"`
	Created          time.Time `json:"created"`
}

// Revisions returns the full provenance chain containing id — every
// recorded revision sharing its root, ordered by sequence number — or
// ok=false when the id has no lineage record (never uploaded, or pruned).
// Evicted revisions still appear with Resident=false: the chain is history,
// not cache state.
func (rg *Registry) Revisions(id string) ([]RevisionInfo, bool) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	rec, ok := rg.lineage[id]
	if !ok {
		return nil, false
	}
	var out []RevisionInfo
	for _, rid := range rg.lineageOrder {
		r := rg.lineage[rid]
		if r.root != rec.root {
			continue
		}
		_, resident := rg.items[r.id]
		out = append(out, RevisionInfo{
			ID: r.id, Parent: r.parent, Root: r.root, Seq: r.seq,
			Dims: r.dims, NNZ: r.nnz, AddedNNZ: r.added,
			MergedDuplicates: r.merged, Resident: resident, Created: r.created,
		})
	}
	// lineageOrder is insertion-ordered; within a chain that is already
	// seq order, but make it explicit for branchy chains.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out, true
}

// Ancestors walks the provenance chain from id back to its root, returning
// id first. Used by auto warm-start to find the newest model published
// against any ancestor revision.
func (rg *Registry) Ancestors(id string) []string {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	var out []string
	seen := make(map[string]bool)
	for cur := id; cur != "" && !seen[cur]; {
		seen[cur] = true
		out = append(out, cur)
		rec, ok := rg.lineage[cur]
		if !ok {
			break
		}
		cur = rec.parent
	}
	return out
}
