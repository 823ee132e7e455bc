package hotpaths

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"hotpaths/internal/engine"
)

// Checkpoint codec: the serialized form of an Engine's complete state,
// written by the durability layer at epoch boundaries so recovery replays
// at most one window of WAL records instead of the full history, and
// fetched by followers over HTTP as their bootstrap.
//
// The payload is framed as
//
//	"HPCK"  magic
//	uint32  LE version
//	uint32  LE CRC-32C of the body
//	body    gob(checkpointBody)
//
// The body embeds the resolved Config the state was produced under;
// decoding verifies it against the recovering instance's Config, since
// restoring state into a differently-parameterised pipeline would break
// the determinism that recovery relies on.
//
// Version 2 encodes every coordinate by its IEEE-754 bits (geom.Point's
// GobEncode): gob's own float encoding omits zero-valued fields, so a
// version-1 checkpoint brought a -0 coordinate back as +0 and /paths was
// byte-unequal after a restart. Version-1 files are refused by number —
// recovery falls back to the journal and says so if that cannot reach.

const checkpointVersion = 2

var checkpointMagic = []byte("HPCK")

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// A checkpointVersionError refuses a checkpoint written in a format this
// build does not read; typed so a failed recovery can be seen to name it.
type checkpointVersionError struct{ version uint32 }

func (e *checkpointVersionError) Error() string {
	return fmt.Sprintf("hotpaths: checkpoint version %d not supported", e.version)
}

// checkpointBody is the gob-encoded checkpoint content. engine.State is
// shard-count-agnostic: a dump restores into an Engine of any width.
type checkpointBody struct {
	Config Config
	State  engine.State
}

// encodeCheckpoint serializes a state dump taken under cfg. The body is
// encoded behind a reserved header in one buffer, whose checksum is
// filled in afterwards: a second copy of the payload would be live at the
// very moment the process's heap peaks (the dump, gob's own buffer and
// the payload all at once).
func encodeCheckpoint(cfg Config, st engine.State) ([]byte, error) {
	var out bytes.Buffer
	out.Write(checkpointMagic)
	out.Write(binary.LittleEndian.AppendUint32(nil, checkpointVersion))
	out.Write(make([]byte, 4)) // the body's CRC, once there is a body
	hdr := out.Len()
	if err := gob.NewEncoder(&out).Encode(checkpointBody{Config: cfg, State: st}); err != nil {
		return nil, fmt.Errorf("hotpaths: encode checkpoint: %w", err)
	}
	b := out.Bytes()
	binary.LittleEndian.PutUint32(b[hdr-4:], crc32.Checksum(b[hdr:], checkpointCRC))
	return b, nil
}

// decodeCheckpoint validates and deserializes a checkpoint payload,
// rejecting it when it was written under a different configuration.
func decodeCheckpoint(b []byte, want Config) (engine.State, error) {
	hdr := len(checkpointMagic) + 8
	if len(b) < hdr || !bytes.Equal(b[:len(checkpointMagic)], checkpointMagic) {
		return engine.State{}, fmt.Errorf("hotpaths: not a checkpoint file")
	}
	if v := binary.LittleEndian.Uint32(b[len(checkpointMagic):]); v != checkpointVersion {
		return engine.State{}, &checkpointVersionError{version: v}
	}
	body := b[hdr:]
	if got, wantCRC := crc32.Checksum(body, checkpointCRC), binary.LittleEndian.Uint32(b[len(checkpointMagic)+4:]); got != wantCRC {
		return engine.State{}, fmt.Errorf("hotpaths: checkpoint checksum mismatch")
	}
	var cb checkpointBody
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&cb); err != nil {
		return engine.State{}, fmt.Errorf("hotpaths: decode checkpoint: %w", err)
	}
	if cb.Config != want {
		return engine.State{}, fmt.Errorf("hotpaths: checkpoint was written under config %+v, recovering with %+v", cb.Config, want)
	}
	return cb.State, nil
}
