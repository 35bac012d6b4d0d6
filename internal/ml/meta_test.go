package ml

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// fitTinySVM returns a fitted two-class SVM + scaler for serializer tests.
func fitTinySVM(tb testing.TB) (*SVM, *Scaler) {
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
	svm := NewSVM(RBFKernel{Gamma: 0.5}, 4)
	if err := svm.Fit(&Dataset{X: scaledX, Y: ds.Y}); err != nil {
		tb.Fatal(err)
	}
	return svm, scaler
}

// TestModelMetaRoundTrip asserts a stamped model serializes its meta block
// losslessly: version, creation time and training-set size all survive.
func TestModelMetaRoundTrip(t *testing.T) {
	svm, scaler := fitTinySVM(t)
	meta := &ModelMeta{
		Version:   3,
		CreatedAt: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		TrainedOn: 10,
	}
	m := &Model{Classifier: svm, Scaler: scaler, Meta: meta}
	data, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if n := metaSectionLen(data); n == 0 {
		t.Fatal("serialized model lacks a meta section")
	}
	got, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta == nil {
		t.Fatal("meta lost in round trip")
	}
	if got.Meta.Version != 3 || got.Meta.TrainedOn != 10 || !got.Meta.CreatedAt.Equal(meta.CreatedAt) {
		t.Fatalf("meta round trip = %+v, want %+v", got.Meta, meta)
	}
	if got.Version() != 3 {
		t.Fatalf("Version() = %d, want 3", got.Version())
	}
	again, err := MarshalModel(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("stamped model round trip is not a fixed point:\n%s\nvs\n%s", data, again)
	}
}

// TestModelMetaBackwardCompatible asserts unstamped models — artifacts
// with an empty meta section, as written before stamping existed —
// deserialize, predict, and re-serialize without growing a spurious stamp.
func TestModelMetaBackwardCompatible(t *testing.T) {
	svm, scaler := fitTinySVM(t)
	unstamped, err := MarshalModel(&Model{Classifier: svm, Scaler: scaler})
	if err != nil {
		t.Fatal(err)
	}
	if n := metaSectionLen(unstamped); n != 0 {
		t.Fatalf("unstamped model should serialize an empty meta section, got %d bytes", n)
	}
	m, err := UnmarshalModel(unstamped)
	if err != nil {
		t.Fatalf("unstamped model failed to parse: %v", err)
	}
	if m.Meta != nil {
		t.Fatalf("unstamped model grew a meta stamp: %+v", m.Meta)
	}
	if m.Version() != 0 {
		t.Fatalf("unstamped Version() = %d, want 0", m.Version())
	}
	if got := m.Predict([]float64{1, 8}); got != 0 {
		t.Fatalf("unstamped model predicts %d for a class-0 point", got)
	}
	again, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unstamped, again) {
		t.Fatalf("unstamped round trip changed the artifact:\n%x\nvs\n%x", unstamped, again)
	}
}

// metaSectionLen reads the meta section's length prefix, which follows the
// magic and the format version.
func metaSectionLen(data []byte) uint32 {
	return binary.LittleEndian.Uint32(data[len(artifactMagic)+4:])
}

// TestNilModelVersion pins Version()'s nil-safety (hot-swap logs call it on
// possibly-uninstalled incumbents).
func TestNilModelVersion(t *testing.T) {
	var m *Model
	if m.Version() != 0 {
		t.Fatal("nil model must report version 0")
	}
}
