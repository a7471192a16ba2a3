package main

import (
	"bytes"
	"math/rand"

	"repro/internal/sptensor"
)

// twin generates the structural twin of a Table I dataset at scale, with
// the registry's generator seed replaced by seed.
func twin(dataset string, scale float64, seed int64) *sptensor.Tensor {
	spec, err := sptensor.LookupDataset(dataset)
	if err != nil {
		panic(err) // the benchmark names only registered datasets
	}
	spec.Seed = seed
	return spec.Generate(scale)
}

// encodeTNS returns t in .tns text, the upload format of the service.
func encodeTNS(t *sptensor.Tensor) []byte {
	var buf bytes.Buffer
	_ = sptensor.WriteTNS(&buf, t) // writes to a bytes.Buffer do not fail
	return buf.Bytes()
}

// splitHeldOut shuffles t's nonzeros and returns the first keep share of
// them as the base tensor and n equal batches cut from the rest. The base
// and the batches have t's mode lengths and no coordinate in common.
func splitHeldOut(t *sptensor.Tensor, keep float64, n int, rng *rand.Rand) (*sptensor.Tensor, []*sptensor.Tensor) {
	perm := rng.Perm(t.NNZ())
	baseN := int(float64(len(perm)) * keep)
	size := (len(perm) - baseN) / n
	batches := make([]*sptensor.Tensor, n)
	for i := range batches {
		batches[i] = subTensor(t, perm[baseN+i*size:baseN+(i+1)*size])
	}
	return subTensor(t, perm[:baseN]), batches
}

func subTensor(t *sptensor.Tensor, pick []int) *sptensor.Tensor {
	s := sptensor.New(t.Dims, len(pick))
	for i, x := range pick {
		for m := range t.Inds {
			s.Inds[m][i] = t.Inds[m][x]
		}
		s.Vals[i] = t.Vals[x]
	}
	return s
}
