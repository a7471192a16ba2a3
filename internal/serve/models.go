package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/model"
)

// wsPool recycles query workspaces across requests, so concurrent handlers
// get the same zero-allocation steady state the query kernels promise for
// a single caller: after warm-up, a query is pin → pooled workspace →
// arena-bracketed kernel → unpin, with no per-request heap traffic beyond
// the response encoder.
var wsPool = sync.Pool{New: func() any { return model.NewWorkspace() }}

// pinModel resolves {id} and pins the model for the handler's duration.
// A false return means the 404 envelope has been written.
func (s *Server) pinModel(w http.ResponseWriter, r *http.Request) (*model.Model, string, bool) {
	id := r.PathValue("id")
	m, err := s.models.Pin(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, "", false
	}
	return m, id, true
}

// KruskalUpload is the POST /v1/models body: an explicit Kruskal model to
// publish without running a decomposition job (e.g. factors computed
// offline). Factors are row-major, one matrix per mode, each row of length
// rank.
type KruskalUpload struct {
	Lambda  []float64     `json:"lambda"`
	Factors [][][]float64 `json:"factors"`
}

// modelUpload is a KruskalUpload as decodeUpload reads it.
type modelUpload struct {
	lambda  []float64
	factors []uploadFactor
}

// decodeUpload reads a KruskalUpload body. It walks the body as a token
// stream and decodes one factor row at a time straight into its mode's
// flat matrix, so the body is never buffered whole and no jagged rows are
// built: garbage several times the model's size, whose collection timing
// would set the server's peak memory during an upload. Keys match as
// encoding/json matches struct fields (case-insensitively, a repeated key
// replacing the earlier one), and any other key is an error, as under
// DisallowUnknownFields.
func decodeUpload(r io.Reader) (*modelUpload, error) {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return nil, err
	}
	u := &modelUpload{}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch key := t.(string); {
		case strings.EqualFold(key, "lambda"):
			err = dec.Decode(&u.lambda)
		case strings.EqualFold(key, "factors"):
			u.factors, err = decodeFactors(dec)
		default:
			err = fmt.Errorf("json: unknown field %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return u, expectDelim(dec, '}')
}

// toKruskal validates the upload and converts it to the engine form.
func (u *modelUpload) toKruskal() (*core.KruskalTensor, error) {
	rank := len(u.lambda)
	if rank == 0 {
		return nil, errors.New("serve: model upload missing lambda")
	}
	if len(u.factors) == 0 {
		return nil, errors.New("serve: model upload missing factors")
	}
	k := &core.KruskalTensor{Lambda: u.lambda, Factors: make([]*dense.Matrix, len(u.factors))}
	for m, f := range u.factors {
		row, n := 0, f.cols
		if f.cols == rank && f.badRow >= 0 {
			row, n = f.badRow, f.badLen
		}
		switch {
		case f.rows == 0:
			return nil, fmt.Errorf("serve: factor %d has no rows", m)
		case n != rank:
			return nil, fmt.Errorf("serve: factor %d row %d has %d entries, want rank %d",
				m, row, n, rank)
		}
		k.Factors[m] = dense.NewMatrixFrom(f.rows, rank, f.data)
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// uploadFactor is one mode's factor as decodeUpload reads it: its rows
// appended to data, the first row's length cols, and the first row of
// another length (badRow, -1 if none) with that length. The rank is known
// only once lambda is read, which may come after the factors.
type uploadFactor struct {
	data                       []float64
	rows, cols, badRow, badLen int
}

// decodeFactors reads the factors array: null, or an array whose items are
// null (a factor with no rows) or arrays of rows.
func decodeFactors(dec *json.Decoder) ([]uploadFactor, error) {
	if null, err := openArray(dec); null || err != nil {
		return nil, err
	}
	var factors []uploadFactor
	var row []float64
	for dec.More() {
		f := uploadFactor{badRow: -1}
		null, err := openArray(dec)
		if err != nil {
			return nil, err
		}
		for !null && dec.More() {
			// A null number leaves its element as it was: zero, as in a
			// fresh row.
			clear(row[:cap(row)])
			if err := dec.Decode(&row); err != nil {
				return nil, err
			}
			if f.rows == 0 {
				f.cols = len(row)
			} else if len(row) != f.cols && f.badRow < 0 {
				f.badRow, f.badLen = f.rows, len(row)
			}
			f.data = append(f.data, row...)
			f.rows++
		}
		if !null {
			if err := expectDelim(dec, ']'); err != nil {
				return nil, err
			}
		}
		factors = append(factors, f)
	}
	return factors, expectDelim(dec, ']')
}

// openArray reads the next token, which must open an array or be null.
func openArray(dec *json.Decoder) (null bool, err error) {
	t, err := dec.Token()
	switch {
	case err != nil:
		return false, err
	case t == nil:
		return true, nil
	case t != json.Delim('['):
		return false, fmt.Errorf("json: cannot unmarshal %v into an array", t)
	}
	return false, nil
}

// expectDelim reads the next token, which must be the delimiter d.
func expectDelim(dec *json.Decoder, d json.Delim) error {
	t, err := dec.Token()
	if err == nil && t != d {
		err = fmt.Errorf("json: got %v, want %v", t, d)
	}
	return err
}

func (s *Server) handlePublishModel(w http.ResponseWriter, r *http.Request) {
	u, err := decodeUpload(r.Body) // bounded by the route's body limit
	if err != nil {
		// An oversized body is 413 even where its content failed first.
		if _, rerr := io.Copy(io.Discard, r.Body); rerr != nil {
			err = rerr
		}
		writeError(w, uploadStatus(err), fmt.Errorf("serve: decoding model upload: %w", err))
		return
	}
	k, err := u.toKruskal()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m, err := model.Build(k)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, cached := s.models.Publish(m, "", "")
	status := http.StatusCreated
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	info, ok := s.models.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("%w: model %s", errModelNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// parseCoord parses "i,j,k" into an integer coordinate.
func parseCoord(raw string) ([]int, error) {
	if raw == "" {
		return nil, errors.New("serve: missing coord parameter (want coord=i,j,k)")
	}
	parts := strings.Split(raw, ",")
	coord := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("serve: coord component %q is not an integer", p)
		}
		coord[i] = n
	}
	return coord, nil
}

// entryResponse is the GET /v1/models/{id}/entry body.
type entryResponse struct {
	ModelID string  `json:"model_id"`
	Coord   []int   `json:"coord"`
	Value   float64 `json:"value"`
}

func (s *Server) handleModelEntry(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m, id, ok := s.pinModel(w, r)
	if !ok {
		return
	}
	defer s.models.Unpin(id)
	coord, err := parseCoord(r.URL.Query().Get("coord"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ws := wsPool.Get().(*model.Workspace)
	v, err := m.At(ws, coord)
	wsPool.Put(ws)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.met.recordQuery("entry", start)
	writeJSON(w, http.StatusOK, entryResponse{ModelID: id, Coord: coord, Value: v})
}

// topKRequest is the POST /v1/models/{id}/topk body: rank every index of
// Mode by the reconstructed value at Coord with that component varying
// (coord[mode] itself is ignored), returning the K best.
type topKRequest struct {
	Mode  int   `json:"mode"`
	Coord []int `json:"coord"`
	K     int   `json:"k"`
}

// similarRequest is the POST /v1/models/{id}/similar body: the K nearest
// rows to Index within Mode's factor matrix by cosine similarity.
type similarRequest struct {
	Mode  int `json:"mode"`
	Index int `json:"index"`
	K     int `json:"k"`
}

// queryResponse is the body of both ranking endpoints.
type queryResponse struct {
	ModelID string       `json:"model_id"`
	Mode    int          `json:"mode"`
	Items   []model.Item `json:"items"`
}

func (s *Server) handleModelTopK(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m, id, ok := s.pinModel(w, r)
	if !ok {
		return
	}
	defer s.models.Unpin(id)
	var req topKRequest
	dec := json.NewDecoder(r.Body) // bounded by the route's body limit
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding topk request: %w", err))
		return
	}
	ws := wsPool.Get().(*model.Workspace)
	items, err := m.TopK(ws, req.Mode, req.Coord, req.K, nil)
	if err != nil {
		wsPool.Put(ws)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.met.recordQuery("topk", start)
	writeJSON(w, http.StatusOK, queryResponse{ModelID: id, Mode: req.Mode, Items: items})
	wsPool.Put(ws)
}

func (s *Server) handleModelSimilar(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m, id, ok := s.pinModel(w, r)
	if !ok {
		return
	}
	defer s.models.Unpin(id)
	var req similarRequest
	dec := json.NewDecoder(r.Body) // bounded by the route's body limit
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding similar request: %w", err))
		return
	}
	ws := wsPool.Get().(*model.Workspace)
	items, err := m.Similar(ws, req.Mode, req.Index, req.K, nil)
	if err != nil {
		wsPool.Put(ws)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.met.recordQuery("similar", start)
	writeJSON(w, http.StatusOK, queryResponse{ModelID: id, Mode: req.Mode, Items: items})
	wsPool.Put(ws)
}
