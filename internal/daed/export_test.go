package daed

// DropArtifact removes key from the server's store, as a lost write or a
// wiped disk would, so a test can require that repair restores it.
func (s *Server) DropArtifact(key string) { s.store.Delete(key) }

// DecodeTraceResponse and ReadBody expose the client's response decoding
// to the external test package.
var (
	DecodeTraceResponse = decodeTraceResponse
	ReadBody            = readBody
)

// MaxBody is the largest response body the client reads.
const MaxBody = maxBody
