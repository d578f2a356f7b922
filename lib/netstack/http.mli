(** Minimal HTTP/1.1 framing for the evaluation workloads.

    Enough protocol to drive the Mongoose-style web server and the in-house
    file server: request line + headers, [Content-Length] bodies, connection
    close semantics.  Bodies stay as {!Payload} chunks so multi-gigabyte
    responses cost no memory. *)

open Ftsim_sim

type reader
(** Buffered reader over a TCP connection. *)

val reader : Tcp.conn -> reader

val reader_fn : (int -> Payload.chunk list) -> reader
(** Reader over any receive function ([recv max] returning [[]] at
    end-of-stream) — e.g. a replicated {!Ftsim_ftlinux} socket. *)

val read_headers : reader -> string option
(** Read up to and including the blank line; returns the header block
    (without the final CRLF CRLF), or [None] on end-of-stream. *)

val read_body : reader -> int -> Payload.chunk list
(** Read exactly [n] body bytes (fewer on premature end-of-stream). *)

val skip_body : reader -> int -> int
(** Consume [n] body bytes without keeping them; returns bytes actually
    consumed (fewer on end-of-stream). *)

(** {1 Serialization} *)

val request : meth:string -> target:string -> string
(** A header-less request: the request line and the blank line. *)

val response_header :
  ?status:int -> ?reason:string -> content_length:int -> unit -> string

(** {1 Parsing helpers} *)

val request_target : string -> string option
(** Target of the request line of a header block. *)

val content_length : string -> int option

val status_code : string -> int option
