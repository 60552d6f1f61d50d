package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// TestFrameStreamRoundTrip pins the streaming frame format: several
// envelopes on one stream, each exactly one length-prefixed binary frame,
// decoded back in order into a reused envelope.
func TestFrameStreamRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	envs := []Envelope{
		{Kind: KindPush, From: "a:1", Update: Update{Origin: "a:1", Seq: 1, Key: "k", Value: []byte("v")}, RF: []string{"b:2"}, T: 1},
		{Kind: KindAck, From: "b:2", UpdateRef: store.Ref{Origin: "a:1", Seq: 1}},
		{Kind: KindPullReq, From: "c:3", Clock: version.Clock{"a:1": 1}},
	}
	for i := range envs {
		frame, err := AppendFrame(nil, &envs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(frame), EncodedSize(&envs[i]); got != want {
			t.Fatalf("frame %d is %dB, EncodedSize says %dB", i, got, want)
		}
		stream.Write(frame)
	}

	fr := NewFrameReader(&stream)
	var got Envelope
	for i, want := range envs {
		if err := fr.ReadEnvelope(&got); err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.From != want.From {
			t.Fatalf("envelope %d = %+v, want %+v", i, got, want)
		}
	}
	if err := fr.ReadEnvelope(&got); err == nil {
		t.Fatal("read past end of stream succeeded")
	}
}

func TestFrameReaderRejectsOversizeFrame(t *testing.T) {
	var stream bytes.Buffer
	var lenbuf [4]byte
	binary.BigEndian.PutUint32(lenbuf[:], MaxFrameBytes+1)
	stream.Write(lenbuf[:])
	stream.WriteString("x")
	var env Envelope
	if err := NewFrameReader(&stream).ReadEnvelope(&env); err == nil ||
		!strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("oversize frame err = %v", err)
	}
}

func TestFrameReaderRejectsStrayBytes(t *testing.T) {
	// One frame carrying an envelope plus trailing garbage: the reader must
	// refuse to continue the stream.
	body, err := EncodeBinary(&Envelope{Kind: KindAck, From: "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	var lenbuf [4]byte
	binary.BigEndian.PutUint32(lenbuf[:], uint32(len(body)+3))
	stream.Write(lenbuf[:])
	stream.Write(body)
	stream.WriteString("pad")
	var env Envelope
	if err := NewFrameReader(&stream).ReadEnvelope(&env); err == nil ||
		!strings.Contains(err.Error(), "stray") {
		t.Fatalf("stray-byte err = %v", err)
	}
}

// TestFrameReaderRejectsTruncatedBody: a frame whose length prefix promises
// more bytes than the stream delivers must fail cleanly, not block or
// misparse.
func TestFrameReaderRejectsTruncatedBody(t *testing.T) {
	body, err := EncodeBinary(&Envelope{Kind: KindQuery, From: "a:1", QID: 7, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	var lenbuf [4]byte
	binary.BigEndian.PutUint32(lenbuf[:], uint32(len(body)))
	stream.Write(lenbuf[:])
	stream.Write(body[:len(body)-2]) // connection died mid-frame
	var env Envelope
	if err := NewFrameReader(&stream).ReadEnvelope(&env); err == nil {
		t.Fatal("truncated body decoded")
	}
}

// TestFrameRefcount exercises the shared-frame lifecycle: Retain/Release
// pairs recycle the frame only once the last holder lets go.
func TestFrameRefcount(t *testing.T) {
	env := Envelope{Kind: KindAck, From: "a:1", UpdateRef: store.Ref{Origin: "o", Seq: 3}}
	f, err := NewFrame(&env)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), f.Bytes()...)
	f.Retain()
	f.Release()
	if !bytes.Equal(f.Bytes(), want) {
		t.Fatal("frame bytes changed while a reference was held")
	}
	// The frame decodes to the envelope we encoded.
	got, err := DecodeBinary(f.Bytes()[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != env.Kind || got.UpdateRef != env.UpdateRef {
		t.Fatalf("frame decoded to %+v", got)
	}
	f.Release()
}
