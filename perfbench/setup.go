package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/gpusim"
	"nitro/internal/ml"
	"nitro/internal/obs"
)

// Corpus shape shared by every workload: one fixed instance scale and a
// fixed held-out count per benchmark, so the held-out inputs of all five
// functions fit the dispatch memo together with room to spare.
const (
	corpusScale = 0.1
	corpusTest  = 200
)

// tuned is the offline stage every workload starts from: the five corpora
// generated at the run's seed, labelled by exhaustive search over the
// gpusim-charged variants, and one distilled SVM model per benchmark.
type tuned struct {
	suites []*autotuner.Suite
	models []*ml.Model
	// fig6 is each benchmark's mean held-out performance relative to
	// exhaustive search (the paper's Fig. 6 number).
	fig6 []float64

	genS, labelS, fitS, distillS float64
	// kernelS is the labelling time of each benchmark, in suite order.
	kernelS []float64
	// variantRuns counts labelled (input, variant) cells with a finite
	// cost: the variant executions that ran to completion.
	variantRuns  int
	agreementMin float64
	// distillRefusals counts corpus draws the distiller refused, and
	// refusedS is the wall time they took.
	distillRefusals int
	refusedS        float64
}

// tuneS is the offline tuning time: labelling plus fit plus distillation.
func (t *tuned) tuneS() float64 { return t.labelS + t.fitS + t.distillS }

func gridConfig(seed int64) ml.GridConfig {
	return ml.GridConfig{
		CValues:     []float64{0.5, 4, 32, 256},
		GammaValues: []float64{1.0 / 128, 1.0 / 16, 0.5, 4},
		Folds:       4,
		Seed:        seed,
	}
}

// corpusTries is how many corpora the offline stage draws at most for one
// benchmark. The distiller refuses an artifact that would send too much of
// its corpus to the exact path (ml.ErrDistillRejected); the benchmark then
// draws that benchmark's corpus again from a seed derived from the run's,
// so that every seed yields five distilled functions. Refused draws are
// counted in distillRefusals and left out of every timing.
const corpusTries = 4

// corpusSeed is the seed of a benchmark's try'th corpus draw at a run seed.
func corpusSeed(seed int64, try int) int64 { return seed + int64(try)*1_000_003 }

// buildTuned runs the offline stage. The builders run one after another so
// each phase's wall time is its own; within a builder, labelling uses every
// core.
func buildTuned(seed int64) (*tuned, error) {
	dev := gpusim.Fermi()
	t := &tuned{agreementMin: 1}
	for _, b := range datasets.Builders() {
		var err error
		for try := 0; try < corpusTries; try++ {
			start := time.Now()
			if err = t.tuneOne(b, seed, corpusSeed(seed, try), dev); !errors.Is(err, ml.ErrDistillRejected) {
				break
			}
			t.distillRefusals++
			t.refusedS += time.Since(start).Seconds()
		}
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// tuneOne generates, labels, trains and distills one benchmark's corpus
// drawn at corpusSeed, and adds it to t only when every step succeeded.
func (t *tuned) tuneOne(b datasets.SuiteBuilder, seed, corpusSeed int64, dev *gpusim.Device) error {
	ph := obs.NewPhaseTracker()
	s, err := b.Build(datasets.Config{Seed: corpusSeed, Scale: corpusScale, TestCount: corpusTest, Phases: ph}, dev)
	if err != nil {
		return fmt.Errorf("build %s corpus: %w", b.Name, err)
	}
	gen, label := 0.0, 0.0
	for _, p := range ph.Phases() {
		switch p.Name {
		case "generate":
			gen += p.Duration.Seconds()
		case "label":
			label += p.Duration.Seconds()
		}
	}
	runs := 0
	for _, set := range [][]autotuner.Instance{s.Train, s.Test} {
		for _, in := range set {
			for _, v := range in.Times {
				if !math.IsInf(v, 1) {
					runs++
				}
			}
		}
	}

	start := time.Now()
	model, _, err := autotuner.Train(s.Train, autotuner.TrainOptions{
		Classifier: "svm", GridSearch: true, Grid: gridConfig(seed), Seed: seed,
	})
	if err != nil {
		return fmt.Errorf("train %s: %w", s.Name, err)
	}
	fit := time.Since(start).Seconds()

	corpus := make([][]float64, 0, len(s.Train))
	for _, in := range s.Train {
		corpus = append(corpus, in.Features)
	}
	start = time.Now()
	c, err := ml.Distill(model, corpus, ml.DistillOptions{})
	distill := time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("distill %s: %w", s.Name, err)
	}
	model.Compiled = c

	t.genS += gen
	t.labelS += label
	t.kernelS = append(t.kernelS, label)
	t.variantRuns += runs
	t.fitS += fit
	t.distillS += distill
	t.agreementMin = math.Min(t.agreementMin, c.Agreement)
	t.suites = append(t.suites, s)
	t.models = append(t.models, model)
	t.fig6 = append(t.fig6, autotuner.Evaluate(model, s, s.Test).MeanPerf)
	return nil
}

// bestOf returns the cheapest finite cost of an instance.
func bestOf(in autotuner.Instance) float64 {
	_, b := in.Best()
	return b
}
