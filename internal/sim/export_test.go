package sim

// Envelope is the store's entry format, for the wire decoding tests of
// the external test package.
type Envelope = envelope
