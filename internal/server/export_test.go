package server

// SetWriteBufBytes sizes the reply buffer of every connection s serves
// from its next Serve on, in place of writeBufBytes.
func (s *Server) SetWriteBufBytes(n int) { s.writeBuf = n }
