package ml

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Artifact versioning helpers for the model registry: a serialized model is
// distributed as an opaque byte blob identified by a strong ETag (content
// hash) and its stamped version, so clients can pull with If-None-Match and
// servers can enforce If-Match preconditions without parsing the body.

// ETagOf returns the strong HTTP entity tag of a serialized model artifact:
// a quoted sha256 of the exact bytes. Byte-identical artifacts — and only
// those — share an ETag.
func ETagOf(data []byte) string {
	sum := sha256.Sum256(data)
	return `"sha256-` + hex.EncodeToString(sum[:]) + `"`
}

// EncodeArtifact serializes m with MarshalModel and returns the bytes with
// their ETag. The binary encoding is deterministic for a given model, so
// re-encoding an unchanged model reproduces the same ETag.
func EncodeArtifact(m *Model) ([]byte, string, error) {
	data, err := MarshalModel(m)
	if err != nil {
		return nil, "", err
	}
	return data, ETagOf(data), nil
}

// DecodeArtifact reconstructs a model from artifact bytes and verifies the
// expected ETag when one is supplied (empty wantETag skips the check) — a
// truncated or corrupted pull fails loudly instead of installing garbage.
func DecodeArtifact(data []byte, wantETag string) (*Model, error) {
	if wantETag != "" {
		if got := ETagOf(data); got != wantETag {
			return nil, fmt.Errorf("ml: artifact etag mismatch: got %s, want %s", got, wantETag)
		}
	}
	return UnmarshalModel(data)
}
