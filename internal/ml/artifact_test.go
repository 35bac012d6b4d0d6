package ml

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestArtifactRoundTrip: encode → decode reproduces the model, the ETag is
// deterministic, and a corrupted artifact fails the ETag check.
func TestArtifactRoundTrip(t *testing.T) {
	ds := &Dataset{}
	for x := 0.0; x < 6; x++ {
		label := 0
		if x > 2.5 {
			label = 1
		}
		ds.Append([]float64{x}, label)
	}
	svm := NewSVM(LinearKernel{}, 1)
	if err := svm.Fit(ds); err != nil {
		t.Fatal(err)
	}
	m := &Model{Classifier: svm, Meta: &ModelMeta{Version: 3, TrainedOn: 6}}

	data, etag, err := EncodeArtifact(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(etag, `"sha256-`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("etag %q is not a quoted sha256 tag", etag)
	}
	data2, etag2, err := EncodeArtifact(m)
	if err != nil {
		t.Fatal(err)
	}
	if etag != etag2 || string(data) != string(data2) {
		t.Fatal("re-encoding an unchanged model changed the artifact")
	}

	back, err := DecodeArtifact(data, etag)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != 3 {
		t.Fatalf("round-trip lost the version stamp: %d", back.Version())
	}
	for x := 0.0; x < 6; x++ {
		if got, want := back.Predict([]float64{x}), m.Predict([]float64{x}); got != want {
			t.Fatalf("round-trip prediction diverged at x=%v: %d vs %d", x, got, want)
		}
	}

	// Corruption is caught by the ETag before the parser ever runs.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := DecodeArtifact(corrupt, etag); err == nil {
		t.Fatal("corrupted artifact passed the etag check")
	}
	// Empty wantETag skips the check but still parses.
	if _, err := DecodeArtifact(data, ""); err != nil {
		t.Fatal(err)
	}
}

type namedModel struct {
	name  string
	model *Model
}

// artifactKindModels fits one model of every serializable kind on a seeded
// three-class problem, each with a distilled program and decision grid and,
// when stamp is set, provenance with a zero CreatedAt (the offline tuner's
// stamp).
func artifactKindModels(tb testing.TB, stamp bool) []namedModel {
	tb.Helper()
	ds := blobs(60, 3, 2, 0.5, 21)
	scaler := &Scaler{}
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		tb.Fatal(err)
	}
	train := &Dataset{X: scaled, Y: ds.Y}
	ens := NewEnsemble()
	ens.Folds = 2
	var out []namedModel
	for _, clf := range []Classifier{NewSVM(RBFKernel{Gamma: 0.7}, 4), NewKNN(3), NewDecisionTree(6, 1), NewLogistic(0, 0, 100), ens} {
		if err := clf.Fit(train); err != nil {
			tb.Fatal(err)
		}
		m := &Model{Classifier: clf, Scaler: scaler}
		if stamp {
			m.Meta = &ModelMeta{Version: 4, TrainedOn: train.Len()}
		}
		c, err := Distill(m, ds.X, DistillOptions{Grid: true, GridRes: 12})
		if err != nil {
			tb.Fatalf("%s: %v", clf.Name(), err)
		}
		m.Compiled = c
		out = append(out, namedModel{clf.Name(), m})
	}
	return out
}

// TestArtifactRoundTripEveryKind: for every classifier kind, with and
// without provenance, the decoded artifact serves identical choices through
// identical tiers on a seeded grid of inputs, keeps its meta (zero CreatedAt
// included), and re-encodes to the same bytes — so its ETag is stable.
func TestArtifactRoundTripEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probes := make([][]float64, 400)
	for i := range probes {
		probes[i] = []float64{rng.Float64()*14 - 2, rng.Float64()*14 - 2}
	}
	for _, stamp := range []bool{false, true} {
		for _, nm := range artifactKindModels(t, stamp) {
			name := fmt.Sprintf("%s/meta=%v", nm.name, stamp)
			data, etag, err := EncodeArtifact(nm.model)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			back, err := DecodeArtifact(data, etag)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, x := range probes {
				wp, wt := nm.model.PredictTier(x)
				gp, gt := back.PredictTier(x)
				if gp != wp || gt != wt {
					t.Fatalf("%s: at %v decoded model served (%d,%s), want (%d,%s)", name, x, gp, gt, wp, wt)
				}
			}
			if stamp {
				if back.Meta == nil || *back.Meta != *nm.model.Meta || back.Meta.CreatedAt != (time.Time{}) {
					t.Fatalf("%s: meta %+v after round trip, want %+v with zero CreatedAt", name, back.Meta, nm.model.Meta)
				}
			} else if back.Meta != nil {
				t.Fatalf("%s: unstamped model grew meta %+v", name, back.Meta)
			}
			again, etag2, err := EncodeArtifact(back)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if etag2 != etag || !bytes.Equal(again, data) {
				t.Fatalf("%s: re-encoding the decoded model changed the artifact", name)
			}
		}
	}
}

// TestArtifactETagStableAcrossProcesses encodes every kind in a child
// process and in this one: the ETags must match, so no per-process state
// (map order, addresses, clocks) leaks into the bytes.
func TestArtifactETagStableAcrossProcesses(t *testing.T) {
	etags := func() []string {
		var out []string
		for _, stamp := range []bool{false, true} {
			for _, nm := range artifactKindModels(t, stamp) {
				_, etag, err := EncodeArtifact(nm.model)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("etag %s/meta=%v %s", nm.name, stamp, etag))
			}
		}
		return out
	}
	if os.Getenv("NITRO_ML_ETAG_CHILD") == "1" {
		fmt.Println(strings.Join(etags(), "\n"))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestArtifactETagStableAcrossProcesses$", "-test.count=1")
	cmd.Env = append(os.Environ(), "NITRO_ML_ETAG_CHILD=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	var child []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "etag ") {
			child = append(child, line)
		}
	}
	if len(child) == 0 {
		t.Fatalf("child process printed no ETags:\n%s", out)
	}
	if got, want := strings.Join(child, "\n"), strings.Join(etags(), "\n"); got != want {
		t.Fatalf("ETags differ across processes:\nchild:\n%s\nparent:\n%s", got, want)
	}
}
