package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// The encoding/json codec this package used before the one-pass codec,
// kept as the oracle the new code is checked against.

// oracleRead decodes a payload the way Read did: the whole envelope,
// body included, through encoding/json.
func oracleRead(payload []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, err
	}
	return &env, nil
}

// oracleFrame frames an envelope the way WriteEnvelope did: json.Marshal
// of the whole envelope, which compacts and re-validates the body.
func oracleFrame(env *Envelope) ([]byte, error) {
	payload, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	return frame(payload), nil
}

// oracleDecodeBody decodes a body the way DecodeBody did.
func oracleDecodeBody(body []byte, into any) error {
	if len(body) == 0 {
		return fmt.Errorf("no body")
	}
	return json.Unmarshal(body, into)
}

func sameSlices[T any](a, b []T, same func(T, T) bool) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !same(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool { return sameSlices(a, b, sameFloat) }

func sameFloats2(a, b [][]float64) bool { return sameSlices(a, b, sameFloats) }

// sameCapture compares two captures bit for bit, nil against empty
// slices included.
func sameCapture(a, b CaptureWire) bool {
	return sameSlices(a.Beeps, b.Beeps, sameFloats2) && sameFloat(a.SampleRate, b.SampleRate) &&
		sameFloats2(a.NoiseOnly, b.NoiseOnly) && sameFloats2(a.Reference, b.Reference)
}

// checkDecodeCapture decodes body as an AuthRequest and an EnrollRequest
// with DecodeBody and with encoding/json and fails unless both accept or
// both reject, and, when both accept, store identical values.
func checkDecodeCapture(t *testing.T, body []byte) {
	t.Helper()
	env := &Envelope{Type: TypeAuthRequest, Body: body}
	var gotA, wantA AuthRequest
	errGot, errWant := DecodeBody(env, &gotA), oracleDecodeBody(body, &wantA)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("AuthRequest %q: DecodeBody error %v, encoding/json error %v", body, errGot, errWant)
	}
	if errGot == nil && !sameCapture(gotA.Capture, wantA.Capture) {
		t.Fatalf("AuthRequest %q: decoded %+v, encoding/json %+v", body, gotA, wantA)
	}
	env.Type = TypeEnrollRequest
	var gotE, wantE EnrollRequest
	errGot, errWant = DecodeBody(env, &gotE), oracleDecodeBody(body, &wantE)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("EnrollRequest %q: DecodeBody error %v, encoding/json error %v", body, errGot, errWant)
	}
	if errGot == nil && (gotE.UserID != wantE.UserID || gotE.Retrain != wantE.Retrain || !sameCapture(gotE.Capture, wantE.Capture)) {
		t.Fatalf("EnrollRequest %q: decoded %+v, encoding/json %+v", body, gotE, wantE)
	}
}

// checkReadAgainstOracle reads a payload with Read and with the oracle.
// Whenever the oracle accepts, Read must accept with equal header fields
// and body bytes. Read may accept beyond the oracle only when the body is
// not valid JSON, and DecodeBody must then reject that body.
func checkReadAgainstOracle(t *testing.T, payload []byte) {
	t.Helper()
	got, errGot := Read(bytes.NewReader(frame(payload)))
	want, errWant := oracleRead(payload)
	if errWant == nil {
		if errGot != nil {
			t.Fatalf("%q: Read refused a frame encoding/json accepts: %v", payload, errGot)
		}
		if got.Version != want.Version || got.RequestID != want.RequestID || got.User != want.User || got.Type != want.Type {
			t.Fatalf("%q: header %+v, encoding/json %+v", payload, got, want)
		}
		if !bytes.Equal(got.Body, want.Body) || (got.Body == nil) != (want.Body == nil) {
			t.Fatalf("%q: body %q, encoding/json %q", payload, got.Body, want.Body)
		}
		return
	}
	if errGot != nil {
		return
	}
	if json.Valid(got.Body) {
		t.Fatalf("%q: Read accepted a frame encoding/json refuses (%v), with a valid body %q", payload, errWant, got.Body)
	}
	for _, into := range []any{&AuthRequest{}, &EnrollRequest{}, &RetrainRequest{}, new(any)} {
		if err := DecodeBody(got, into); err == nil {
			t.Fatalf("%q: DecodeBody accepted the invalid body %q into %T", payload, got.Body, into)
		}
	}
}

// captureBody marshals a capture whose samples cover the float64 range:
// ordinary values, negative zero, subnormals, extremes and values whose
// shortest decimal form needs 17 digits.
func captureBody(t testing.TB, beeps, mics, samples int) []byte {
	t.Helper()
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308, math.MaxFloat64,
		-math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, 123456789012345680, 1e21, 1e-7, 48000}
	x := uint64(0x9E3779B97F4A7C15)
	next := func(i int) float64 {
		if i%97 == 0 {
			return special[(i/97)%len(special)]
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return (float64(x>>11)/(1<<53) - 0.5) * math.Pow(10, float64(int(x%9))-6)
	}
	plane := func(rows, cols, salt int) [][]float64 {
		out := make([][]float64, rows)
		for r := range out {
			out[r] = make([]float64, cols)
			for c := range out[r] {
				out[r][c] = next(salt + r*cols + c)
			}
		}
		return out
	}
	w := CaptureWire{SampleRate: 48000, NoiseOnly: plane(mics, 3*samples, 1), Reference: plane(mics, samples, 2)}
	for b := 0; b < beeps; b++ {
		w.Beeps = append(w.Beeps, plane(mics, samples, 3+b))
	}
	raw, err := json.Marshal(EnrollRequest{UserID: 7, Capture: w, Retrain: true})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// captureFrame is the framed v2 authenticate request for captureBody's
// capture, as a client writes it.
func captureFrame(t testing.TB, beeps, mics, samples int) []byte {
	t.Helper()
	var req EnrollRequest
	if err := json.Unmarshal(captureBody(t, beeps, mics, samples), &req); err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvelope(TypeAuthRequest, "req-1", AuthRequest{Capture: req.Capture})
	if err != nil {
		t.Fatal(err)
	}
	env.User = 7
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeCaptureMatchesEncodingJSON(t *testing.T) {
	valid := captureBody(t, 2, 3, 200)
	checkDecodeCapture(t, valid)
	var req EnrollRequest
	if err := DecodeBody(&Envelope{Body: valid}, &req); err != nil {
		t.Fatal(err)
	}
	if req.UserID != 7 || !req.Retrain || len(req.Capture.Beeps) != 2 || len(req.Capture.NoiseOnly[2]) != 600 {
		t.Fatalf("decoded capture lost its shape: user %d retrain %v", req.UserID, req.Retrain)
	}

	for _, body := range []string{
		// Values and null.
		`{}`, `null`, ` null `, `{"capture":null}`, `{"capture":{}}`,
		`{"capture":{"beeps":null,"noise_only":null,"reference":null,"sample_rate":null}}`,
		`{"capture":{"beeps":[],"noise_only":[[]],"reference":[null,[1]]}}`,
		`{"capture":{"beeps":[[[1,null,-0,0.5e-3,1E+2,-12.75]]]}}`,
		`{"capture":{"beeps":[[[5e-324,1e-400,2.2250738585072011e-308,1.7976931348623157e308]]]}}`,
		`{"capture":{"sample_rate":1e400}}`, `{"capture":{"sample_rate":-1e309}}`,
		`{"user_id":3,"retrain":true}`, `{"user_id":null,"retrain":null}`,
		`{"user_id":3.0}`, `{"user_id":"3"}`, `{"user_id":99999999999999999999}`, `{"retrain":1}`,
		// Key matching: order, case folding, escapes, unknown keys.
		`{"retrain":false,"capture":{"sample_rate":8000},"user_id":2}`,
		`{"CAPTURE":{"Beeps":[[[1]]],"SAMPLE_RATE":3,"Noise_Only":[[2]],"REFERENCE":[[3]]},"User_ID":4,"RETRAIN":true}`,
		`{"capture":{"beepſ":[[[1]]],"ſample_rate":2},"uſer_id":5,"retraİn":true}`,
		`{"capture":{"beepſ":[[[1]]]},"retraın":true}`,
		`{"capture":{"beeps":[[[1]]]},"user_id":6}`,
		`{"capture ":{"beeps":[[[1]]]},"user_id2":7,"":null}`,
		`{"x":{"beeps":[[["a"]]]},"capture":{"extra":[1,{"y":"é\n"}],"beeps":[[[2]]]}}`,
		// Repeated keys decode again into the same value, reusing storage.
		`{"capture":{"beeps":[[[1,2,3]]]},"capture":{"sample_rate":9}}`,
		`{"capture":{"beeps":[[[1,2,3]]],"beeps":[[[null]]]}}`,
		`{"capture":{"beeps":[[[1,2,3,4,5]]],"beeps":[[[7]]],"beeps":[[[8,null,null,null]]]}}`,
		`{"capture":{"noise_only":[[1,2],[3,4]],"noise_only":[null,[null]]}}`,
		`{"capture":{"beeps":[[[1]]],"beeps":[]}}`,
		`{"capture":{"beeps":[[[1]]]},"capture":null}`,
		// Type mismatches.
		`[]`, `"capture"`, `1`, `true`, `{"capture":[]}`, `{"capture":1}`,
		`{"capture":{"beeps":{}}}`, `{"capture":{"beeps":[1]}}`, `{"capture":{"beeps":[[1]]}}`,
		`{"capture":{"beeps":[[["1"]]]}}`, `{"capture":{"beeps":[[[true]]]}}`, `{"capture":{"sample_rate":"48000"}}`,
		`{"capture":{"reference":[[{}]]}}`, `{"capture":{"noise_only":"x"}}`,
		// Syntax errors.
		``, ` `, `{`, `{"capture":{"beeps":[[[1,2]]]}`, `{"capture":{"beeps":[[[1,]]]}}`,
		`{"capture":{"beeps":[[[01]]]}}`, `{"capture":{"beeps":[[[1.]]]}}`, `{"capture":{"beeps":[[[.5]]]}}`,
		`{"capture":{"beeps":[[[-]]]}}`, `{"capture":{"beeps":[[[1e]]]}}`, `{"capture":{"beeps":[[[+1]]]}}`,
		`{"capture":{"beeps":[[[0x10]]]}}`, `{"capture":{"beeps":[[[NaN]]]}}`, `{"capture":{"beeps":[[[1_0]]]}}`,
		`{"capture":{"beeps":[[[1 2]]]}}`, `{"capture":{"beeps":[[[nul]]]}}`, `{"capture":{"beeps":[[[nullx]]]}}`,
		`{"capture":{"beeps":[[[1]]]}} x`, `{"capture":{"beeps":[[[1]]]}}}`, `{"capture" {}}`, `{capture:{}}`,
		`{"x":"\q"}`, `{"x":"\u12g4"}`, "{\"x\":\"a\x01\"}", `{"x":[1,]}`, `{"x":{"a":1,}}`, `{"x":tru}`,
		`{"capture":{"beeps":[[[1]]]},}`, `{"user_id":3 "retrain":true}`, "\ufeff{}",
	} {
		checkDecodeCapture(t, []byte(body))
	}

	// Nesting at and past encoding/json's depth limit, in a known key and
	// in a skipped one.
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth, maxNestingDepth + 1} {
		inner := bytes.Repeat([]byte{'['}, depth-1)
		inner = append(inner, bytes.Repeat([]byte{']'}, depth-1)...)
		checkDecodeCapture(t, append(append([]byte(`{"x":`), inner...), '}'))
		checkDecodeCapture(t, append(append([]byte(`{"user_id":`), inner...), '}'))
	}
}

func TestReadMatchesOracle(t *testing.T) {
	body := captureBody(t, 1, 2, 50)
	for _, payload := range []string{
		`{"type":"status"}`, `{}`, `null`, ` {"type":"x"} `, `{"version":2,"request_id":"r","user":3,"type":"enroll","body":` + string(body) + `}`,
		`{"body":{"capture":{}},"type":"authenticate","version":2}`,
		`{"type":"enroll","body":{ "user_id" : 3 }}`, `{"type":"a","body":null}`, `{"type":"a","body":"s"}`,
		`{"type":"a","body":-1.5e3}`, `{"type":"a","body":true}`, `{"type":"a","body":[1,{"a":"]"}]}`,
		`{"type":"a","BODY":[1]}`, `{"type":"a","body":[2]}`, `{"type":"a","Body":{},"body":{"x":1}}`,
		`{"type":"a","body":{"x":}}`, `{"type":"a","body":{"x":1]}`, `{"type":"a","body":{"x":},"body":1}`,
		`{"type":"a","body":1,"body":{"x":}}`, `{"type":"a","body":nul}`, `{"type":"a","body":1x}`,
		`{"type":"a","body":{"x":"\q"}}`, `{"type":"a","body":[1}`, `{"type":"a","body":{"x":"}"}}`,
		`{"type":"a","body":{"x":1}`, `{"type":"a","body":}`, `{"type":5,"body":{}}`, `{"user":"3","body":{}}`,
		`{"type":"a","body":{}} x`, `{"type":"a","body":{}}}`, `{"type":"a","body" {}}`, `{"type":"a" "body":{}}`,
		`{"type":"aé\n","request_id":"<&>","body":{}}`, `{"version":2.5,"body":{}}`, `[{"body":1}]`,
		`{"x":{"body":[}]},"type":"a"}`, `{"type":"a","body":"\"}"}`, "{\"type\":\"a\",\"body\":\"\x01\"}",
		// Bodies cut short: framed up to the envelope's final brace.
		`{"version":2,"type":"authenticate","body":{"capture":{"beeps":[[[0.25,-0.5}`, `{"type":"a","body":[1,2}`,
		`{"type":"a","body":{"capture":1} `, `{"type":"a","body":"abc}`, `{"type":"a","body":{"x":"}"}`,
		`{"type":"a","body":{"x":[1,"type":"b"}`, `{"type":"a","body":123`, `{"type":"a","body":"s"`, `{"type":"a","body":[}`,
		`{"type":"a","body":{  }`, `{"type":"a","body":[[[1]]] }`, `{"type":"a","body" : [ 1 ,  }  `,
	} {
		checkReadAgainstOracle(t, []byte(payload))
	}

	// The body's nesting counts from the envelope: a body encoding/json
	// accepts alone may still nest the envelope past its limit.
	for _, depth := range []int{maxNestingDepth - 2, maxNestingDepth - 1, maxNestingDepth} {
		nested := append(bytes.Repeat([]byte{'['}, depth), bytes.Repeat([]byte{']'}, depth)...)
		checkReadAgainstOracle(t, append(append([]byte(`{"type":"a","body":`), nested...), '}'))
	}
}

// TestReadAliasesBody pins the one-copy contract: the body Read returns is
// a capped slice of the payload it read, not a second copy.
func TestReadAliasesBody(t *testing.T) {
	env, err := Read(bytes.NewReader(frame([]byte(`{"type":"enroll","body":{"user_id":3},"version":2}`))))
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Body) != `{"user_id":3}` || cap(env.Body) != len(env.Body) {
		t.Fatalf("body %q with capacity %d", env.Body, cap(env.Body))
	}
	if env.Version != 2 || env.Type != TypeEnrollRequest {
		t.Fatalf("header %+v", env)
	}
}

// TestWriteEnvelopeMatchesMarshal pins byte identity with the old writer
// for every body json.Marshal produces, HTML-escaped strings, U+2028 and
// byte slices included.
func TestWriteEnvelopeMatchesMarshal(t *testing.T) {
	bodies := []any{
		nil,
		AuthRequest{Capture: CaptureWire{Beeps: [][][]float64{{{0.1, -2e-9, 1e21}}}, SampleRate: 48000}},
		EnrollRequest{UserID: 3, Retrain: true},
		ErrorResponse{Code: CodeBadRequest, Message: "<script>&  \"\\ é \x7f"},
		HandoffRequest{UserID: 2, State: []byte{0, 1, 2, 0xff}},
		StatusResponse{Users: []int{}},
		"string body",
		map[string]any{"z": 1, "a": []any{nil, true, 1.5}},
	}
	for _, body := range bodies {
		for _, hdr := range []Envelope{
			{Type: TypeStatusRequest},
			{Version: Version, RequestID: "r-<1>&", User: 9, Type: TypeAuthRequest},
			{Version: 1, RequestID: "é ", Type: MsgType("type\"<>")},
		} {
			env := hdr
			if body != nil {
				raw, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				env.Body = raw
			}
			var buf bytes.Buffer
			if err := WriteEnvelope(&buf, &env); err != nil {
				t.Fatal(err)
			}
			want, err := oracleFrame(&env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("WriteEnvelope %q\nencoding/json %q", buf.Bytes(), want)
			}
		}
	}

	// A body Read kept verbatim is forwarded verbatim, whitespace and all,
	// and its length prefix counts every byte.
	in := frame([]byte(`{"type":"enroll","body":{ "user_id" : 3 }}`))
	env, err := Read(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteEnvelope(&out, env); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), in) || int(binary.BigEndian.Uint32(out.Bytes())) != out.Len()-4 {
		t.Errorf("forwarded %q, received %q", out.Bytes(), in)
	}
}

// TestCaptureFrameRoundTrip reads and decodes a multi-beep capture frame
// and checks every sample against encoding/json bit for bit.
func TestCaptureFrameRoundTrip(t *testing.T) {
	raw := captureFrame(t, 4, 6, 2640)
	env, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleRead(raw[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Body, want.Body) || env.User != 7 || env.RequestID != "req-1" {
		t.Fatalf("header %+v, body of %d bytes vs %d", env, len(env.Body), len(want.Body))
	}
	var got, ref AuthRequest
	if err := DecodeBody(env, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want.Body, &ref); err != nil {
		t.Fatal(err)
	}
	if !sameCapture(got.Capture, ref.Capture) {
		t.Fatal("decoded samples differ from encoding/json's")
	}
	if len(got.Capture.Beeps) != 4 || len(got.Capture.Beeps[3][5]) != 2640 {
		t.Fatalf("capture shape %d beeps", len(got.Capture.Beeps))
	}
}

// TestReadCutBody pins the in-band path for a body cut short: the header
// is read, the body runs to the envelope's final brace, DecodeBody
// refuses it, and a forwarder writes the same frame on.
func TestReadCutBody(t *testing.T) {
	in := frame([]byte(`{"version":2,"request_id":"r-9","user":4,"type":"authenticate","body":{"capture":{"beeps":[[[0.25,-0.5}`))
	env, err := Read(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != 2 || env.RequestID != "r-9" || env.User != 4 || env.Type != TypeAuthRequest {
		t.Fatalf("header %+v", env)
	}
	if string(env.Body) != `{"capture":{"beeps":[[[0.25,-0.5` {
		t.Fatalf("body %q", env.Body)
	}
	if err := DecodeBody(env, &AuthRequest{}); err == nil {
		t.Fatal("cut body decoded")
	}
	var out bytes.Buffer
	if err := WriteEnvelope(&out, env); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), in) {
		t.Errorf("forwarded %q, received %q", out.Bytes(), in)
	}
}

// TestSkipPlain checks the word-at-a-time scan against a byte loop for
// every byte value at every offset of a word and its tail.
func TestSkipPlain(t *testing.T) {
	for c := 0; c < 256; c++ {
		for n := 1; n <= 19; n++ {
			for at := 0; at < n; at++ {
				p := bytes.Repeat([]byte("-0.1234,"), 3)[:n]
				p[at] = byte(c)
				for from := 0; from <= at; from++ {
					want := from
					for want < len(p) && !structural[p[want]] {
						want++
					}
					if got := skipPlain(p, from); got != want {
						t.Fatalf("byte %#x at %d of %q from %d: got %d, want %d", c, at, p, from, got, want)
					}
				}
			}
		}
	}
}

// TestDecodeRefusesCommasCheaply sends a sample array of bare commas: the
// decoder must refuse it without first allocating room for every comma.
func TestDecodeRefusesCommasCheaply(t *testing.T) {
	body := []byte(`{"capture":{"reference":[[` + strings.Repeat(",", 4<<20) + `]]}}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeBody(&Envelope{Type: TypeAuthRequest, Body: body}, &AuthRequest{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("array of bare commas decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("refusing a %d-byte body allocated %d bytes", len(body), grew)
	}
}
