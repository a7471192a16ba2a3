package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
)

// uploadByStruct is the model-upload decode decodeUpload replaced, kept as
// its reference: the whole body into a KruskalUpload under
// DisallowUnknownFields, then the same checks over the jagged rows.
func uploadByStruct(body []byte) (*core.KruskalTensor, error) {
	var u KruskalUpload
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		return nil, err
	}
	rank := len(u.Lambda)
	if rank == 0 {
		return nil, errors.New("serve: model upload missing lambda")
	}
	if len(u.Factors) == 0 {
		return nil, errors.New("serve: model upload missing factors")
	}
	k := &core.KruskalTensor{
		Lambda:  append([]float64(nil), u.Lambda...),
		Factors: make([]*dense.Matrix, len(u.Factors)),
	}
	for m, rows := range u.Factors {
		if len(rows) == 0 {
			return nil, fmt.Errorf("serve: factor %d has no rows", m)
		}
		f := dense.NewMatrix(len(rows), rank)
		for i, row := range rows {
			if len(row) != rank {
				return nil, fmt.Errorf("serve: factor %d row %d has %d entries, want rank %d",
					m, i, len(row), rank)
			}
			copy(f.Row(i), row)
		}
		k.Factors[m] = f
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// sameKruskal reports whether a and b have the same shape and bitwise
// equal λ and factors.
func sameKruskal(a, b *core.KruskalTensor) bool {
	bits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !bits(a.Lambda, b.Lambda) || len(a.Factors) != len(b.Factors) {
		return false
	}
	for m, f := range a.Factors {
		g := b.Factors[m]
		if f.Rows != g.Rows || f.Cols != g.Cols || !bits(f.Data, g.Data) {
			return false
		}
	}
	return true
}

// TestDecodeUploadMatchesStructDecode pins the streaming model-upload
// decode to the whole-struct decode it replaced: the same bodies succeed
// with bitwise the same model, and the same bodies fail. A body that fails
// as JSON (syntax, types, unknown keys) may word its error differently; a
// well-formed body that fails the checks gives the same message.
func TestDecodeUploadMatchesStructDecode(t *testing.T) {
	k := core.NewRandomKruskal([]int{5, 4, 3}, 3, 1)
	k.Lambda[1] = -0.75
	valid, err := json.Marshal(kruskalUploadOf(k))
	if err != nil {
		t.Fatal(err)
	}
	u := kruskalUploadOf(k)
	lam, _ := json.Marshal(u.Lambda)
	fac, _ := json.Marshal(u.Factors)
	L, F := string(lam), string(fac)

	const decodeErr = "json" // fails as JSON; the message is not compared
	cases := []struct {
		name, body, want string // want: "" (success), decodeErr, or the check's message
	}{
		{"marshalled", string(valid), ""},
		{"factors first", `{"factors":` + F + `,"lambda":` + L + `}`, ""},
		{"keys fold case", `{"LAMBDA":` + L + `,"Factors":` + F + `}`, ""},
		{"escaped key", `{"lamb\u0064a":` + L + `,"factors":` + F + `}`, ""},
		{"repeated keys", `{"lambda":[9,9],"factors":[[[1]]],"lambda":` + L + `,"factors":` + F + `}`, ""},
		{"whitespace", " \n{ \"lambda\" :\t" + L + " ,\n \"factors\" : " + F + " }\n", ""},
		{"trailing value", string(valid) + ` {"x":1}`, ""},
		{"number forms", `{"lambda":[1,-0,5e-324],"factors":[[[1e-310,-0.0,1.7976931348623157e308]],` +
			`[[2E+3,0.5e-1,-7],[0,1,2]]]}`, ""},
		{"null numbers", `{"lambda":[1,null,3],"factors":[[[1,2,3],[4,null,6]],[[7,8,9],[null,null,null]]]}`, ""},
		{"unknown key last", `{"lambda":[1],"factors":[[[1]]],"extra":1}`, decodeErr},
		{"unknown key first", `{"x":null,"lambda":[1],"factors":[[[1]]]}`, decodeErr},
		{"no lambda", `{"factors":[[[1]]]}`, "serve: model upload missing lambda"},
		{"null lambda", `{"lambda":null,"factors":[[[1]]]}`, "serve: model upload missing lambda"},
		{"empty lambda", `{"lambda":[],"factors":[[[1]]]}`, "serve: model upload missing lambda"},
		{"empty object", `{}`, "serve: model upload missing lambda"},
		{"no factors", `{"lambda":[1]}`, "serve: model upload missing factors"},
		{"null factors", `{"lambda":[1],"factors":null}`, "serve: model upload missing factors"},
		{"empty factors", `{"lambda":[1],"factors":[]}`, "serve: model upload missing factors"},
		{"null factor", `{"lambda":[1],"factors":[[[1]],null]}`, "serve: factor 1 has no rows"},
		{"empty factor", `{"lambda":[1],"factors":[[[1]],[]]}`, "serve: factor 1 has no rows"},
		{"short first row", `{"lambda":[1,2],"factors":[[[1],[1,2]]]}`,
			"serve: factor 0 row 0 has 1 entries, want rank 2"},
		{"short later row", `{"lambda":[1,2],"factors":[[[1,2],[1]]]}`,
			"serve: factor 0 row 1 has 1 entries, want rank 2"},
		{"long later row", `{"lambda":[1,2],"factors":[[[1,2],[1,2],[1,2,3],[1]]]}`,
			"serve: factor 0 row 2 has 3 entries, want rank 2"},
		{"every row off rank", `{"lambda":[1,2],"factors":[[[1],[1]]]}`,
			"serve: factor 0 row 0 has 1 entries, want rank 2"},
		{"null row", `{"lambda":[1],"factors":[[[1],null]]}`,
			"serve: factor 0 row 1 has 0 entries, want rank 1"},
		{"empty row", `{"lambda":[1],"factors":[[[1],[]]]}`,
			"serve: factor 0 row 1 has 0 entries, want rank 1"},
		{"ragged second factor", `{"lambda":[1],"factors":[[[1]],[[1],[2,3]]]}`,
			"serve: factor 1 row 1 has 2 entries, want rank 1"},
		{"rank from a later lambda", `{"factors":[[[1,2]]],"lambda":[1]}`,
			"serve: factor 0 row 0 has 2 entries, want rank 1"},
		{"string lambda", `{"lambda":"x","factors":[[[1]]]}`, decodeErr},
		{"string entry", `{"lambda":[1],"factors":[[["1"]]]}`, decodeErr},
		{"object factors", `{"lambda":[1],"factors":{}}`, decodeErr},
		{"number factor", `{"lambda":[1],"factors":[5]}`, decodeErr},
		{"number row", `{"lambda":[1],"factors":[[5]]}`, decodeErr},
		{"nested row", `{"lambda":[1],"factors":[[[[1]]]]}`, decodeErr},
		{"overflow", `{"lambda":[1],"factors":[[[1e400]]]}`, decodeErr},
		{"truncated", string(valid[:len(valid)/2]), decodeErr},
		{"empty body", ``, decodeErr},
		{"array body", `[1]`, decodeErr},
		{"null body", `null`, decodeErr},
		{"missing colon", `{"lambda" [1],"factors":[[[1]]]}`, decodeErr},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, refErr := uploadByStruct([]byte(c.body))
			up, derr := decodeUpload(strings.NewReader(c.body))
			var got *core.KruskalTensor
			err := derr
			if derr == nil {
				got, err = up.toKruskal()
			}
			switch {
			case c.want == decodeErr:
				if derr == nil || refErr == nil {
					t.Fatalf("stream decode err %v, struct err %v, want both to fail", derr, refErr)
				}
			case derr != nil:
				t.Fatalf("stream decode failed: %v, want %q", derr, c.want)
			case c.want == "":
				if err != nil || refErr != nil {
					t.Fatalf("stream err %v, struct err %v, want success", err, refErr)
				}
				if !sameKruskal(got, ref) {
					t.Fatalf("stream and struct decodes differ:\n%v %v\n%v %v",
						got.Lambda, got.Factors, ref.Lambda, ref.Factors)
				}
			default:
				if err == nil || err.Error() != c.want || refErr == nil || refErr.Error() != c.want {
					t.Fatalf("stream err %v, struct err %v, want %q", err, refErr, c.want)
				}
			}
		})
	}
}

// TestDecodeUploadStreamsRows pins what the streaming decode is for: it
// neither buffers the body whole nor builds jagged rows, so a large upload
// allocates at least a body's size less than the whole-struct decode,
// whose buffer alone grows past the body. Both allocate a string per
// number, inside encoding/json.
func TestDecodeUploadStreamsRows(t *testing.T) {
	k := core.NewRandomKruskal([]int{3000, 200, 50}, 16, 2)
	body, err := json.Marshal(kruskalUploadOf(k))
	if err != nil {
		t.Fatal(err)
	}
	// The least of three runs, since anything else the process allocates
	// meanwhile only adds.
	allocated := func(decode func() (*core.KruskalTensor, error)) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got, err := decode()
			runtime.ReadMemStats(&after)
			if err != nil || !sameKruskal(got, k) {
				t.Fatalf("decode: err %v or a model other than the uploaded one", err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	whole := allocated(func() (*core.KruskalTensor, error) { return uploadByStruct(body) })
	stream := allocated(func() (*core.KruskalTensor, error) {
		u, err := decodeUpload(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return u.toKruskal()
	})
	t.Logf("body %d B: whole-struct decode allocated %d B, streaming %d B", len(body), whole, stream)
	if saved := int64(whole) - int64(stream); saved < int64(len(body)) {
		t.Fatalf("streaming decode allocated %d B, %d B less than the whole-struct decode, "+
			"not the %d B of the body", stream, saved, len(body))
	}
}

// TestPublishModelOversizedIs413 checks that a model upload over the body
// limit is 413 even when its content fails before the limit is reached:
// the streaming decode stops at the first bad key, where the whole-struct
// decode read the body to the end first.
func TestPublishModelOversizedIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxUploadBytes: 1 << 10})
	body := `{"extra":1,"lambda":[` + strings.Repeat("1,", 1<<10) + `1],"factors":[[[1]]]}`
	resp, data := postBytes(t, ts.URL+"/v1/models", []byte(body))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload with an unknown key: status %d, want 413: %s", resp.StatusCode, data)
	}
	if code := decodeEnvelope(t, data); code != "too_large" {
		t.Fatalf("oversized upload: code %q", code)
	}
	resp, data = postBytes(t, ts.URL+"/v1/models", []byte(`{"extra":1,"lambda":[1],"factors":[[[1]]]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown key within the limit: status %d, want 400: %s", resp.StatusCode, data)
	}
}
