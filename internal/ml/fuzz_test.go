package ml

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// fuzzSeedModels marshals one fitted model of every serializable kind, for
// the fuzz seed corpus and the lossless-round-trip check. The last one
// carries every section: meta, scaler, classifier and a distilled program
// with its decision grid.
func fuzzSeedModels(tb testing.TB) [][]byte {
	tb.Helper()
	ds := &Dataset{}
	for x := 0.0; x <= 9; x++ {
		label := 0
		if x > 4.5 {
			label = 1
		}
		ds.Append([]float64{x, 9 - x}, label)
	}
	scaler := &Scaler{}
	scaledX, err := scaler.FitTransform(ds.X)
	if err != nil {
		tb.Fatal(err)
	}
	scaled := &Dataset{X: scaledX, Y: ds.Y}
	ens := NewEnsemble(NewSVM(RBFKernel{Gamma: 0.5}, 4), NewKNN(3), NewDecisionTree(4, 1), NewLogistic(0, 0, 50))
	ens.Folds = 2
	var out [][]byte
	for _, clf := range []Classifier{
		NewSVM(RBFKernel{Gamma: 0.5}, 4),
		NewKNN(3),
		NewDecisionTree(4, 1),
		NewLogistic(0, 0, 50),
		ens,
	} {
		if err := clf.Fit(scaled); err != nil {
			tb.Fatal(err)
		}
		data, err := MarshalModel(&Model{Classifier: clf, Scaler: scaler})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	svm := NewSVM(RBFKernel{Gamma: 0.5}, 4)
	if err := svm.Fit(scaled); err != nil {
		tb.Fatal(err)
	}
	withCompiled := &Model{Classifier: svm, Scaler: scaler, Meta: &ModelMeta{Version: 2, TrainedOn: 10}}
	c, err := Distill(withCompiled, ds.X, DistillOptions{Grid: true, GridRes: 8})
	if err != nil {
		tb.Fatal(err)
	}
	withCompiled.Compiled = c
	data, err := MarshalModel(withCompiled)
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, data)
}

// body returns one hand-built section body.
func body(write func(e *encoder)) []byte {
	e := &encoder{}
	write(e)
	return e.b
}

// rawArtifact frames hand-built meta, scaler, classifier and compiled
// section bodies (nil = absent) into an artifact.
func rawArtifact(meta, scaler, classifier, compiled []byte) []byte {
	e := &encoder{b: []byte(artifactMagic)}
	e.u32(artifactVersion)
	for _, s := range [][]byte{meta, scaler, classifier, compiled} {
		e.u32(uint32(len(s)))
		e.b = append(e.b, s...)
	}
	return e.b
}

// knnBody is a valid two-point 1-NN classifier section.
func knnBody() []byte {
	return body(func(e *encoder) {
		e.u8(kindKNN)
		e.int(1)
		e.ints([]int{0, 1})
		e.rows([][]float64{{0}, {1}})
		e.int(0)
		e.int(1)
	})
}

// ensembleBody is an ensemble classifier section over the given member
// sections (each a kind byte plus body).
func ensembleBody(weights []float64, members ...[]byte) []byte {
	return body(func(e *encoder) {
		e.u8(kindEnsemble)
		e.int(2)
		e.i64(1)
		e.ints([]int{0, 1})
		e.f64s(weights)
		e.count(0)
		e.count(len(members))
		for _, m := range members {
			e.u32(uint32(len(m)))
			e.b = append(e.b, m...)
		}
	})
}

// treeBody is a tree classifier section whose nodes are given as
// (left, right) child index pairs.
func treeBody(children ...[2]int32) []byte {
	return body(func(e *encoder) {
		e.u8(kindTree)
		e.int(4)
		e.int(1)
		e.ints([]int{0, 1})
		e.count(len(children))
		for _, c := range children {
			e.int(0)
			e.f64(0.5)
			e.i32(c[0])
			e.i32(c[1])
			e.f64s([]float64{1, 0})
		}
	})
}

// compiledBody is a one-feature compiled program over classes {0, 1} with
// the given nodes.
func compiledBody(nodes ...CompiledNode) []byte {
	return body(func(e *encoder) {
		encodeCompiled(e, &Compiled{Nodes: nodes, Classes: []int{0, 1}, Dim: 1, Margin: 0.01, Agreement: 1, CorpusSize: 2})
	})
}

// sectionSpans returns the [start, end) byte range of each section body of
// a well-formed artifact.
func sectionSpans(data []byte) [][2]int {
	var spans [][2]int
	for off := len(artifactMagic) + 4; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		spans = append(spans, [2]int{off + 4, off + 4 + n})
		off += 4 + n
	}
	return spans
}

type namedBlob struct {
	name string
	data []byte
}

// hostileArtifacts builds inputs the decoder must refuse: truncation inside
// every section, length prefixes and element counts larger than the bytes
// left, non-finite floats, out-of-range or shared child indices, ensemble
// corruption, and framing errors.
func hostileArtifacts(tb testing.TB) []namedBlob {
	tb.Helper()
	seeds := fuzzSeedModels(tb)
	full := seeds[len(seeds)-1]
	spans := sectionSpans(full)
	if len(spans) != 4 {
		tb.Fatalf("full seed has %d sections, want 4", len(spans))
	}
	patched := func(at int, v uint64, size int) []byte {
		out := append([]byte(nil), full...)
		if size == 4 {
			binary.LittleEndian.PutUint32(out[at:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(out[at:], v)
		}
		return out
	}
	var out []namedBlob
	for i, name := range []string{"meta", "scaler", "classifier", "compiled"} {
		mid := (spans[i][0] + spans[i][1]) / 2
		out = append(out, namedBlob{"truncated " + name, append([]byte(nil), full[:mid]...)})
	}
	scalerMin := spans[1][0] // u32 count, then the first f64
	out = append(out,
		namedBlob{"classifier length past end", patched(spans[2][0]-4, math.MaxUint32, 4)},
		namedBlob{"scaler count past end", patched(scalerMin, 1<<30, 4)},
		namedBlob{"NaN scaler", patched(scalerMin+4, math.Float64bits(math.NaN()), 8)},
		namedBlob{"+Inf scaler", patched(scalerMin+4, math.Float64bits(math.Inf(1)), 8)},
		namedBlob{"-Inf scaler", patched(scalerMin+4, math.Float64bits(math.Inf(-1)), 8)},
		namedBlob{"trailing byte", append(append([]byte(nil), full...), 0)},
		namedBlob{"bad version", patched(len(artifactMagic), 99, 4)},
		namedBlob{"bad magic", append([]byte("NITROMDX"), full[len(artifactMagic):]...)},
		namedBlob{"empty", nil},
		namedBlob{"legacy JSON", []byte(`{"kind":"svm","svm":{"c":1}}`)},
		namedBlob{"no classifier", rawArtifact(nil, nil, nil, nil)},
		namedBlob{"unknown kind", rawArtifact(nil, nil, []byte{99}, nil)},
		namedBlob{"svm missing body", rawArtifact(nil, nil, []byte{kindSVM}, nil)},
		namedBlob{"svm support vector out of range", rawArtifact(nil, nil, body(func(e *encoder) {
			e.u8(kindSVM)
			e.f64(1)
			e.u8(kernelLinear)
			e.ints([]int{0, 1})
			e.rows([][]float64{{0}})
			e.count(1)
			e.int(0)
			e.int(1)
			e.f64(0)
			e.int(1)
			e.count(1)
			e.u32(1) // only row 0 exists
			e.f64(1)
		}), nil)},
		namedBlob{"tree child out of range", rawArtifact(nil, nil, treeBody([2]int32{5, -1}), nil)},
		namedBlob{"tree child loops", rawArtifact(nil, nil, treeBody([2]int32{0, -1}), nil)},
		namedBlob{"tree child shared", rawArtifact(nil, nil, treeBody([2]int32{1, 1}, [2]int32{-1, -1}), nil)},
		namedBlob{"tree node orphaned", rawArtifact(nil, nil, treeBody([2]int32{-1, -1}, [2]int32{-1, -1}), nil)},
		namedBlob{"compiled node out of range", rawArtifact(nil, nil, knnBody(), compiledBody(
			CompiledNode{Left: 9, Right: 1, Threshold: 0.5}, CompiledNode{Left: -1, Right: -1})),
		},
		namedBlob{"compiled node loops", rawArtifact(nil, nil, knnBody(), compiledBody(
			CompiledNode{Left: 0, Right: 0, Threshold: 0.5})),
		},
		namedBlob{"compiled bad grid", rawArtifact(nil, nil, knnBody(), body(func(e *encoder) {
			encodeCompiled(e, &Compiled{
				Nodes: []CompiledNode{{Left: -1, Right: -1}}, Classes: []int{0}, Dim: 1,
				Grid: &DecisionGrid{Res: 2, Lo: []float64{0}, Hi: []float64{1}, Cells: []int8{0, 0, 0}},
			})
		}))},
	)
	return append(out, ensembleCorruptions()...)
}

// ensembleCorruptions are the ensemble-kind failure edges: a missing body,
// no members, a corrupt or unknown member, a nested ensemble, and a
// member/weight arity mismatch.
func ensembleCorruptions() []namedBlob {
	return []namedBlob{
		{"ensemble missing body", rawArtifact(nil, nil, []byte{kindEnsemble}, nil)},
		{"ensemble no members", rawArtifact(nil, nil, ensembleBody(nil), nil)},
		{"ensemble corrupt member", rawArtifact(nil, nil, ensembleBody(nil, []byte{kindSVM}), nil)},
		{"ensemble unknown member", rawArtifact(nil, nil, ensembleBody(nil, []byte{99}), nil)},
		{"ensemble empty member", rawArtifact(nil, nil, ensembleBody(nil, nil), nil)},
		{"ensemble nested member", rawArtifact(nil, nil, ensembleBody(nil, ensembleBody(nil, knnBody())), nil)},
		{"ensemble weight mismatch", rawArtifact(nil, nil, ensembleBody([]float64{0.5}, knnBody(), knnBody()), nil)},
	}
}

// TestUnmarshalRejectsHostileArtifacts asserts every hostile input is
// refused with an error, and that the errors callers branch on are the
// named ones.
func TestUnmarshalRejectsHostileArtifacts(t *testing.T) {
	for _, h := range hostileArtifacts(t) {
		m, err := UnmarshalModel(h.data)
		if err == nil {
			t.Errorf("%s: accepted (%T)", h.name, m.Classifier)
		}
	}
	if _, err := UnmarshalModel([]byte("  {\"kind\": \"svm\"}")); !errors.Is(err, ErrLegacyJSONModel) {
		t.Errorf("legacy JSON error = %v, want ErrLegacyJSONModel", err)
	}
	nested := rawArtifact(nil, nil, ensembleBody(nil, ensembleBody(nil, knnBody())), nil)
	if _, err := UnmarshalModel(nested); !errors.Is(err, ErrNestedEnsemble) {
		t.Errorf("nested ensemble error = %v, want ErrNestedEnsemble", err)
	}
	// The hand-built pieces are themselves well formed: a valid ensemble of
	// two kNN members decodes.
	valid := rawArtifact(nil, nil, ensembleBody([]float64{0.5, 0.5}, knnBody(), knnBody()), compiledBody(
		CompiledNode{Left: 1, Right: 2, Threshold: 0.5}, CompiledNode{Left: -1, Right: -1}, CompiledNode{Left: -1, Right: -1, Class: 1}))
	if _, err := UnmarshalModel(valid); err != nil {
		t.Fatalf("valid hand-built ensemble refused: %v", err)
	}
}

// FuzzUnmarshalModel asserts the model deserializer is total: arbitrary bytes
// must produce either a model or an error — never a panic — and any blob that
// deserializes must round-trip to a fixed point (marshal ∘ unmarshal is
// idempotent, so nothing is silently lost or mutated).
func FuzzUnmarshalModel(f *testing.F) {
	for _, seed := range fuzzSeedModels(f) {
		f.Add(seed)
	}
	for _, h := range hostileArtifacts(f) {
		f.Add(h.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalModel(data) // must never panic
		if err != nil {
			return
		}
		out1, err := MarshalModel(m)
		if err != nil {
			// A deserialized model that cannot re-serialize would lose the
			// artifact on the next save.
			t.Fatalf("deserialized model failed to marshal: %v", err)
		}
		m2, err := UnmarshalModel(out1)
		if err != nil {
			t.Fatalf("re-serialized model failed to parse: %v", err)
		}
		out2, err := MarshalModel(m2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("round trip is not a fixed point:\nfirst:  %x\nsecond: %x", out1, out2)
		}
	})
}

// TestModelRoundTripLossless asserts valid models survive a serialize /
// deserialize cycle exactly: identical serialized form and identical
// predictions.
func TestModelRoundTripLossless(t *testing.T) {
	for _, data := range fuzzSeedModels(t) {
		m, err := UnmarshalModel(data)
		if err != nil {
			t.Fatal(err)
		}
		again, err := MarshalModel(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("round trip changed the artifact:\nbefore: %x\nafter:  %x", data, again)
		}
		for x := 0.0; x <= 9; x += 0.5 {
			vec := []float64{x, 9 - x}
			m2, _ := UnmarshalModel(again)
			if m.Predict(vec) != m2.Predict(vec) {
				t.Fatalf("predictions diverged after round trip at %v", vec)
			}
		}
	}
}
