// Package proto defines the wire protocol between the EchoImage daemon
// (cmd/echoimaged) and its clients: length-prefixed JSON messages over a
// stream transport. The daemon owns the trained authenticator; clients
// submit captures for enrollment or authentication.
//
// Versioning: protocol v2 adds a `version` and `request_id` field to the
// envelope (both echoed in responses, so a client may pipeline requests),
// plus retrain and model_info message types. A missing version field marks
// a v1 client; v1 semantics — synchronous retrain on enroll, no echo —
// are preserved by the daemon.
//
// Framing does not check bodies. Read decodes the envelope's small header
// and keeps the body as the bytes the sender wrote; WriteEnvelope writes
// a body verbatim. A body is checked when it is decoded: DecodeBody
// rejects exactly what encoding/json rejects, so a malformed body is a
// bad request answered in-band, and a router forwards a capture without
// parsing it. Capture-carrying bodies (AuthRequest, EnrollRequest) decode
// in one pass without reflection; every other body uses encoding/json.
package proto

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// MaxMessageBytes bounds a single message to keep a misbehaving peer from
// exhausting memory. Captures dominate message size, and a sample costs
// ≈21 bytes as a JSON number: a 4-beep capture (4 beeps × 6 channels ×
// 2640 samples, plus a 6 × 24000 noise recording and a 6 × 2640
// reference) is 223k samples, 4.7 MB; 20 beeps with the same recordings
// come to ≈10 MB.
const MaxMessageBytes = 64 << 20

// Version is the protocol version this package speaks. Envelopes carry
// the sender's version; 0 (field absent) means v1.
const Version = 2

// MsgType discriminates requests and responses.
type MsgType string

// Protocol message types. The retrain and model_info pairs are v2-only.
// The handoff pair is v2-only and administrative: echoimage-router uses it
// to move one user's shard-local state between daemons during a drain.
const (
	TypeEnrollRequest     MsgType = "enroll"
	TypeAuthRequest       MsgType = "authenticate"
	TypeStatusRequest     MsgType = "status"
	TypeRetrainRequest    MsgType = "retrain"
	TypeModelInfoRequest  MsgType = "model_info"
	TypeHandoffRequest    MsgType = "handoff"
	TypeEnrollResponse    MsgType = "enroll_result"
	TypeAuthResponse      MsgType = "auth_result"
	TypeStatusResponse    MsgType = "status_result"
	TypeRetrainResponse   MsgType = "retrain_result"
	TypeModelInfoResponse MsgType = "model_info_result"
	TypeHandoffResponse   MsgType = "handoff_result"
	TypeError             MsgType = "error"
)

// Stable error codes carried by ErrorResponse.Code, so clients can branch
// without parsing message text.
// Retryable codes: `unavailable` (shutdown or an expired request
// deadline) and `overloaded` (capture admission queue full) are transient
// — a client should retry with exponential backoff. Every other code is
// permanent for the same request.
const (
	CodeBadRequest  = "bad_request"  // malformed body or invalid argument
	CodeUnknownType = "unknown_type" // unrecognized message type
	CodeNotTrained  = "not_trained"  // authentication before any model exists
	CodeProcess     = "process_failed"
	CodeTrain       = "train_failed"
	CodeUnavailable = "unavailable" // daemon shutting down or request deadline expired
	CodeOverloaded  = "overloaded"  // capture queue full: load shed, retry with backoff
	CodeInternal    = "internal"
)

// RetryableCode reports whether a stable error code marks a transient
// failure worth retrying with backoff. The switch is exhaustive over the
// code set on purpose — no default — so adding a code without deciding
// its retry semantics is a lint failure (codeswitch), not a silent
// "permanent". Unknown strings (peer newer than us) are treated as
// permanent: retrying an error we cannot classify amplifies load.
func RetryableCode(code string) bool {
	switch code {
	case CodeUnavailable, CodeOverloaded:
		return true
	case CodeBadRequest, CodeUnknownType, CodeNotTrained, CodeProcess, CodeTrain, CodeInternal:
		return false
	}
	return false
}

// Envelope frames every message. Version and RequestID are v2 additions;
// both marshal to nothing for v1 peers, keeping v1 frames byte-compatible.
type Envelope struct {
	// Version is the sender's protocol version; 0 means v1.
	Version int `json:"version,omitempty"`
	// RequestID is an opaque client-chosen correlation token, echoed
	// verbatim in the response to this request.
	RequestID string `json:"request_id,omitempty"`
	// User is an optional routing hint naming the subject user of the
	// request. It lets echoimage-router pick the owning shard from the
	// envelope alone — without decoding a multi-megabyte capture body —
	// and is what routes requests (retrain, model_info) whose bodies
	// carry no user at all. The daemon ignores it; 0 (field absent)
	// keeps v1 and unrouted v2 frames byte-identical.
	User int             `json:"user,omitempty"`
	Type MsgType         `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`
}

// NewEnvelope marshals body into a v2 envelope carrying the given
// correlation token. A nil body produces an empty-body envelope.
func NewEnvelope(msgType MsgType, requestID string, body any) (*Envelope, error) {
	env := &Envelope{Version: Version, RequestID: requestID, Type: msgType}
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("proto: marshal %s body: %w", msgType, err)
		}
		env.Body = raw
	}
	return env, nil
}

// CaptureWire carries a multichannel capture.
type CaptureWire struct {
	// Beeps is indexed [beep][mic][sample].
	Beeps      [][][]float64 `json:"beeps"`
	SampleRate float64       `json:"sample_rate"`
	// NoiseOnly optionally carries a speaker-silent recording for noise
	// covariance estimation.
	NoiseOnly [][]float64 `json:"noise_only,omitempty"`
	// Reference optionally carries the installation's background
	// calibration beep (empty-scene response) for subtraction.
	Reference [][]float64 `json:"reference,omitempty"`
}

// EnrollRequest registers a user from a capture.
type EnrollRequest struct {
	UserID  int         `json:"user_id"`
	Capture CaptureWire `json:"capture"`
	// Retrain, when set, requests a model rebuild. For v1 clients the
	// rebuild completes before the response; for v2 clients it is queued
	// on the registry worker and the response returns immediately.
	Retrain bool `json:"retrain"`
}

// EnrollResponse reports the enrollment outcome.
type EnrollResponse struct {
	UserID      int     `json:"user_id"`
	Images      int     `json:"images"`
	DistanceM   float64 `json:"distance_m"`
	Trained     bool    `json:"trained"`
	TotalUsers  int     `json:"total_users"`
	TotalImages int     `json:"total_images"`
	// RetrainQueued reports that a background retrain was scheduled
	// (v2 enroll with retrain=true).
	RetrainQueued bool `json:"retrain_queued,omitempty"`
}

// AuthRequest authenticates a capture.
type AuthRequest struct {
	Capture CaptureWire `json:"capture"`
}

// AuthResponse reports the decision.
type AuthResponse struct {
	Accepted  bool    `json:"accepted"`
	UserID    int     `json:"user_id"`
	GateScore float64 `json:"gate_score"`
	DistanceM float64 `json:"distance_m"`
	Images    int     `json:"images"`
	// ModelVersion is the registry version of the model that decided
	// (v2; omitted for v1 peers' benefit when zero).
	ModelVersion int `json:"model_version,omitempty"`
}

// StatusResponse describes the daemon state.
type StatusResponse struct {
	Users       []int `json:"users"`
	Trained     bool  `json:"trained"`
	TotalImages int   `json:"total_images"`
	// ModelVersion is the registry version of the live model (v2).
	ModelVersion int `json:"model_version,omitempty"`
	// Degraded is set only by echoimage-router on aggregated responses:
	// the fan-out that produced this union missed at least one member
	// shard (down or failing), so the figures may undercount. A single
	// daemon never sets it.
	Degraded bool `json:"degraded,omitempty"`
}

// RetrainRequest asks the daemon to rebuild the model from the current
// enrollment pools (v2).
type RetrainRequest struct {
	// Wait blocks the response until the rebuild finishes (v1-style
	// synchronous semantics); otherwise the request only queues it.
	Wait bool `json:"wait,omitempty"`
}

// RetrainResponse acknowledges a retrain request (v2).
type RetrainResponse struct {
	// Queued is set when the rebuild was scheduled asynchronously.
	Queued bool `json:"queued"`
	// ModelVersion is the live model version after the request: the new
	// model when Wait was set, the pre-existing one otherwise.
	ModelVersion int `json:"model_version,omitempty"`
}

// ModelInfoResponse reports per-version metadata of the live model (v2).
type ModelInfoResponse struct {
	Trained      bool   `json:"trained"`
	ModelVersion int    `json:"model_version,omitempty"`
	Users        int    `json:"users,omitempty"`
	Images       int    `json:"images,omitempty"`
	TrainMillis  int64  `json:"train_millis,omitempty"`
	TrainedAt    string `json:"trained_at,omitempty"` // RFC 3339
	// Loaded marks a model installed from disk rather than trained by
	// this daemon process.
	Loaded bool `json:"loaded,omitempty"`
	// Extended marks a model produced by incremental extension (only the
	// newly registered users were fit) rather than a full retrain.
	Extended bool `json:"extended,omitempty"`
	// IdentifyMode is the identification engine the model serves with:
	// "ann" (embedding index shortlist) or "exhaustive" (full one-vs-one
	// SVM scan).
	IdentifyMode string `json:"identify_mode,omitempty"`
	// IndexSize is the number of enrollment embeddings across the model's
	// ANN indexes (0 in exhaustive mode).
	IndexSize int `json:"index_size,omitempty"`
	// LastError is the most recent background training failure, empty
	// once a later train succeeds.
	LastError string `json:"last_error,omitempty"`
	// Degraded is set only by echoimage-router on aggregated responses:
	// the fan-out that produced this merge missed at least one member
	// shard (down or failing). A single daemon never sets it.
	Degraded bool `json:"degraded,omitempty"`
}

// HandoffRequest moves one user's shard-local state (enrollment captures
// plus the model's per-user slice) between daemons. It is issued by
// echoimage-router during a drain, never by end-user clients, and the
// router does not route it — it is always addressed to a specific shard.
// Exactly one of Export / State must be set: Export asks the shard to
// flush and return the user's serialized state; State asks the shard to
// install a previously exported blob.
type HandoffRequest struct {
	UserID int `json:"user_id"`
	// Export asks the shard to serialize the user's state, flush it to
	// the shard's state directory (when configured), and return the blob.
	Export bool `json:"export,omitempty"`
	// State is a blob from a prior export, in the registry's user-state
	// encoding (which reuses the v2 model-snapshot state types), to be
	// installed on the receiving shard.
	State []byte `json:"state,omitempty"`
}

// HandoffResponse reports a handoff outcome.
type HandoffResponse struct {
	UserID int `json:"user_id"`
	// State carries the exported blob (export requests only).
	State []byte `json:"state,omitempty"`
	// Images is the user's enrollment image count on the answering shard.
	Images int `json:"images"`
	// Imported reports that the state was installed. It is false when an
	// identical enrollment was already present — a re-delivered handoff —
	// which is success, not an error.
	Imported bool `json:"imported,omitempty"`
	// RetrainQueued reports that the import scheduled a background
	// retrain so the model converges to cover the new user.
	RetrainQueued bool `json:"retrain_queued,omitempty"`
}

// ErrorResponse carries a failure.
type ErrorResponse struct {
	// Code is one of the stable Code* constants (empty from v1 daemons).
	Code    string `json:"code,omitempty"`
	Message string `json:"message"`
}

// WriteEnvelope frames and sends one message: a 4-byte big-endian length
// followed by the JSON envelope. The header is marshalled and the body
// written verbatim after it, so a body that json.Marshal produced goes
// out byte for byte as json.Marshal(env) would write it, and a body Read
// received is forwarded unchanged. The body must be valid JSON; this
// package does not check it on the way out.
func WriteEnvelope(w io.Writer, env *Envelope) error {
	header := *env
	header.Body = nil
	head, err := json.Marshal(&header)
	if err != nil {
		return fmt.Errorf("proto: marshal envelope: %w", err)
	}
	size := len(head)
	if len(env.Body) > 0 {
		head = append(head[:len(head)-1], `,"body":`...)
		size = len(head) + len(env.Body) + 1
	}
	if size > MaxMessageBytes {
		return fmt.Errorf("proto: message of %d bytes exceeds limit", size)
	}
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(head)), uint32(size))
	if _, err := w.Write(append(frame, head...)); err != nil {
		return fmt.Errorf("proto: write header: %w", err)
	}
	if len(env.Body) == 0 {
		return nil
	}
	if _, err := w.Write(env.Body); err != nil {
		return fmt.Errorf("proto: write body: %w", err)
	}
	if _, err := w.Write([]byte{'}'}); err != nil {
		return fmt.Errorf("proto: write body: %w", err)
	}
	return nil
}

// Write frames and sends one v1 message (no version or request ID).
func Write(w io.Writer, msgType MsgType, body any) error {
	var raw json.RawMessage
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("proto: marshal body: %w", err)
		}
		raw = b
	}
	return WriteEnvelope(w, &Envelope{Type: msgType, Body: raw})
}

// Read receives one framed message. The header fields are decoded by
// encoding/json from the payload with the body's value replaced by null,
// so they mean exactly what they always have; Body aliases the body's
// bytes in the payload, unparsed. A payload the body scan cannot follow
// is decoded whole by encoding/json instead, which refuses it if it is
// not valid JSON. Read therefore accepts every frame encoding/json
// accepts, and beyond those only frames whose body is not valid JSON,
// which DecodeBody rejects.
func Read(r io.Reader) (*Envelope, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("proto: read length prefix: %w", err)
	}
	size := binary.BigEndian.Uint32(prefix[:])
	if size == 0 || size > MaxMessageBytes {
		return nil, fmt.Errorf("proto: message length %d out of range", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("proto: read payload: %w", err)
	}
	var env Envelope
	start, end, err := bodySpan(payload)
	if err != nil || start < 0 {
		if err := json.Unmarshal(payload, &env); err != nil {
			return nil, fmt.Errorf("proto: unmarshal envelope: %w", err)
		}
		return &env, nil
	}
	head := make([]byte, 0, len(payload)-(end-start)+len("null"))
	head = append(append(append(head, payload[:start]...), "null"...), payload[end:]...)
	if err := json.Unmarshal(head, &env); err != nil {
		return nil, fmt.Errorf("proto: unmarshal envelope: %w", err)
	}
	env.Body = payload[start:end:end]
	return &env, nil
}

// DecodeBody unmarshals an envelope body into the given value, accepting
// and rejecting what json.Unmarshal does. AuthRequest and EnrollRequest
// bodies are decoded in one pass by a hand-written decoder that stores
// the same values json.Unmarshal would, floats bit for bit.
func DecodeBody(env *Envelope, into any) error {
	if len(env.Body) == 0 {
		return fmt.Errorf("proto: %s message has no body", env.Type)
	}
	var err error
	if field := captureFields(into); field != nil {
		err = decodeObjectBody(env.Body, field)
	} else {
		err = json.Unmarshal(env.Body, into)
	}
	if err != nil {
		return fmt.Errorf("proto: unmarshal %s body: %w", env.Type, err)
	}
	return nil
}

// Conn wraps a stream with buffered framed I/O.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// Send writes a v1 message and flushes.
func (c *Conn) Send(msgType MsgType, body any) error {
	if err := Write(c.w, msgType, body); err != nil {
		return err
	}
	return c.flush()
}

// SendEnvelope writes a prepared envelope and flushes.
func (c *Conn) SendEnvelope(env *Envelope) error {
	if err := WriteEnvelope(c.w, env); err != nil {
		return err
	}
	return c.flush()
}

func (c *Conn) flush() error {
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("proto: flush: %w", err)
	}
	return nil
}

// Receive reads the next message.
func (c *Conn) Receive() (*Envelope, error) {
	return Read(c.r)
}
