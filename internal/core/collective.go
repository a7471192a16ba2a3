package core

import (
	"repro/internal/dense"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Collective combines one participant's partial results with its peers'
// in a CP-ALS run split by mode-0 rows, such as internal/dist's locales.
// Mode 0 is the row-partitioned mode: each participant owns a block of
// its rows, and every other mode is replicated on all participants. Every
// participant calls the same methods in the same order; each call returns
// once all have made it, with the same result on every participant.
type Collective interface {
	// ReduceMTTKRP sums a replicated mode's partial MTTKRP output.
	ReduceMTTKRP(m *dense.Matrix)
	// ReduceGram sums the Gram partials of mode 0's owned rows.
	ReduceGram(g *dense.Matrix)
	// ReduceNorms sums (Norm2) or maxes (NormMax) mode 0's column-norm
	// partials; the decomposer's Workspace calls it mid-normalization.
	dense.NormReducer
	// ReduceScalar sums one value: the tensor's squared norm, a sampled
	// fit's inner product, or the cancel flag.
	ReduceScalar(v float64) float64
	// GatherRows fills a, mode 0's whole factor, with every participant's
	// owned rows.
	GatherRows(a *dense.Matrix)
}

// sharedMemory is the collective of a run with one participant, which
// owns every row: there is nothing to combine.
type sharedMemory struct{}

func (sharedMemory) ReduceMTTKRP(*dense.Matrix)            {}
func (sharedMemory) ReduceGram(*dense.Matrix)              {}
func (sharedMemory) ReduceNorms([]float64, dense.NormKind) {}
func (sharedMemory) ReduceScalar(v float64) float64        { return v }
func (sharedMemory) GatherRows(*dense.Matrix)              {}

// Shard is one participant's part of a CP-ALS run split by mode-0 rows.
// CPD and Session run one participant whose shard is the whole tensor.
type Shard struct {
	// Tensor holds the nonzeros of the owned mode-0 rows, with mode-0
	// indices counted from Lo; the other modes keep their global indices.
	Tensor *sptensor.Tensor
	// Lo is the global index of the first owned mode-0 row. The shard
	// owns Tensor.Dims[0] rows.
	Lo int
	// ID numbers the participant: it records into recorder ID of
	// Options.Spans, and salts the sampled fit estimate.
	ID int
	// Model seeds the factor model, which every participant holds whole;
	// the run updates a clone. Nil seeds from Options.Init, or randomly.
	Model *KruskalTensor
	// Collective combines the participants' partial results. Nil means
	// the run has this one participant.
	Collective Collective
}

// Participant is one shard's CP-ALS run, built and ready to iterate.
type Participant struct {
	team *parallel.Team
	d    *decomposer
}

// NewParticipant builds shard s's storage backend and solver state. The
// participants of one run take the same opts, with Trace set on at most
// one of them, and opts.Solver resolved on the whole tensor
// (ResolveSolver) so that all follow one schedule. Build every
// participant before running any: Run's collectives wait for all.
func NewParticipant(s Shard, opts Options) (*Participant, error) {
	tasks := max(opts.Tasks, 1)
	team := parallel.NewTeam(tasks)
	d, err := buildDecomposer(s, team, tasks, opts)
	if err != nil {
		team.Close()
		return nil, err
	}
	return &Participant{team: team, d: d}, nil
}

// Run runs the CP-ALS loop to its end and releases the team.
func (p *Participant) Run() (*KruskalTensor, *Report) {
	defer p.team.Close()
	return p.d.run()
}

// Close releases the team of a participant that will not run.
func (p *Participant) Close() { p.team.Close() }
