package daed

// DropArtifact removes key from the server's store, as a lost write or a
// wiped disk would, so a test can require that repair restores it.
func (s *Server) DropArtifact(key string) { s.store.Delete(key) }
