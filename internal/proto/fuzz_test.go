package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frame length-prefixes a payload the way WriteEnvelope does, letting the
// seed corpus express interesting payloads without hand-computing prefixes.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// FuzzRead throws arbitrary bytes at the frame reader. Read must never
// panic; it must agree with the encoding/json reader it replaced (see
// checkReadAgainstOracle); and any frame it accepts must survive a
// re-encode/re-read round trip with envelope identity and body bytes
// intact — the property the daemon relies on when it echoes request IDs
// back through WriteEnvelope, and the router when it forwards a body.
func FuzzRead(f *testing.F) {
	// Valid v2 envelope.
	f.Add(frame([]byte(`{"version":2,"request_id":"r-1","type":"status"}`)))
	// Valid v1 envelope with a body.
	f.Add(frame([]byte(`{"type":"enroll","body":{"user_id":3}}`)))
	// Error response envelope.
	f.Add(frame([]byte(`{"type":"error","body":{"code":"overloaded","message":"shed"}}`)))
	// Zero-length frame (rejected: length out of range).
	f.Add(frame(nil))
	// Truncated payload: prefix promises more bytes than follow.
	f.Add([]byte{0, 0, 0, 50, '{', '"'})
	// Truncated prefix.
	f.Add([]byte{0, 0})
	// Oversize length prefix (rejected before allocation is attempted).
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Valid frame followed by trailing garbage (must still parse).
	f.Add(append(frame([]byte(`{"type":"status"}`)), 0xDE, 0xAD))
	// Frame holding non-JSON bytes.
	f.Add(frame([]byte{0x00, 0x01, 0x02}))
	// Body with insignificant whitespace: forwarded as received.
	f.Add(frame([]byte(`{"type":"enroll","body":{ "user_id" : 3 }}`)))
	// Body that is not valid JSON: framed, refused by DecodeBody.
	f.Add(frame([]byte(`{"version":2,"type":"authenticate","body":{"capture":{"beeps":[[[0.5,1.]]]}}}`)))
	// Repeated and case-folded body keys.
	f.Add(frame([]byte(`{"type":"a","Body":{"x":1},"BODY":[2]}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			if size := int(binary.BigEndian.Uint32(data)); size > 0 && size <= len(data)-4 {
				checkReadAgainstOracle(t, data[4:4+size])
			}
		}
		env, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		var buf bytes.Buffer
		if werr := WriteEnvelope(&buf, env); werr != nil {
			t.Fatalf("accepted envelope failed to re-encode: %v", werr)
		}
		again, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("re-encoded envelope failed to parse: %v", rerr)
		}
		if again.Type != env.Type || again.Version != env.Version || again.RequestID != env.RequestID {
			t.Fatalf("round trip changed identity: %+v -> %+v", env, again)
		}
		if !bytes.Equal(again.Body, env.Body) {
			t.Fatalf("round trip changed body: %q -> %q", env.Body, again.Body)
		}
	})
}

// FuzzDecodeCapture decodes arbitrary bytes as AuthRequest and
// EnrollRequest bodies with DecodeBody and with encoding/json: both must
// accept or both reject, and accepted bodies must decode to identical
// values, floats compared bit for bit.
func FuzzDecodeCapture(f *testing.F) {
	f.Add([]byte(`{"user_id":3,"capture":{"beeps":[[[0.25,-1e-3],[2]]],"sample_rate":48000,"noise_only":[[1]],"reference":[[0]]},"retrain":true}`))
	f.Add([]byte(`{"Capture":{"BEEPS":[[[1,null]]],"ſample_rate":5e-324},"unknown":{"a":["\u00e9"]}}`))
	f.Add([]byte(`{"capture":{"beeps":[[[1,2,3]]],"beeps":[[[null]]]}}`))
	f.Add([]byte(`{"capture":{"beeps":[[[1e400]]]}}`))
	f.Add([]byte(`{"capture":{"beeps":[[["1"]]]}}`))
	f.Add([]byte(`{"capture":{"beeps":[[[01]]]}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"capture":{"beeps":[[[1,]]]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeCapture(t, body)
	})
}
