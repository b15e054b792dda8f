(** A generic select-step socket reactor for the fabric's services.

    The same shape as the compile daemon's server loop — accept,
    buffered nonblocking reads and writes, frame parsing, HELLO/version
    gating, garbage tolerance — factored out so the executor and the
    cache service only supply a message handler.  [step] performs one
    bounded reactor turn; callers loop it ([run]) or hand-pump it from
    a test in the same process, which is how the chaos harness gets a
    deterministic single-process interleaving of client and server.

    HELLO gating is built in: the first frame on every connection must
    be a {!Protocol.k_hello} carrying exactly [version]; anything else
    gets a {!Protocol.k_error} and a close, and the handler never sees
    a message from an ungreeted peer. *)

type t

(** [create ~version addr] — bind and listen.  [addr] with port 0
    binds an ephemeral port; read the result back with {!addr}.
    Raises {!Transport.Unreachable} when the address cannot be
    bound. *)
val create : version:string -> Transport.addr -> t

(** The bound address (with the real port filled in). *)
val addr : t -> Transport.addr

(** [set_handler t f] — [f ~conn msg] runs once per well-formed
    post-HELLO frame; [conn] identifies the connection for {!send}.
    An exception out of the handler closes that connection with an
    error frame, never the reactor. *)
val set_handler : t -> (conn:int -> Pickle.Frame.msg -> unit) -> unit

(** [set_on_step t f] — [f] runs once per {!step}, after I/O; for
    servers with asynchronous work to progress (the executor pumping
    its worker pool). *)
val set_on_step : t -> (unit -> unit) -> unit

(** [send t ~conn ~kind ~id ~payload] — queue a frame for [conn].
    Dropped silently if the connection is gone. *)
val send : t -> conn:int -> kind:int -> id:string -> payload:string -> unit

(** Is this connection still open? *)
val conn_alive : t -> conn:int -> bool

(** One reactor turn: accept, read, parse/dispatch, flush.  Blocks in
    select at most [timeout_s] (default 0 — never blocks). *)
val step : ?timeout_s:float -> t -> unit

val running : t -> bool

(** Loop {!step} (50 ms granularity) until {!stop}. *)
val run : t -> unit

(** Close every connection and the listener.  Idempotent. *)
val stop : t -> unit
