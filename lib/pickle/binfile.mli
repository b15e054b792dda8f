(** The bin-file format: a complete pickled compilation Unit.

    {v
    Unit = { name, static_pid, statenv, import interface pids, codeUnit }
    v}

    Layout: magic, then the {e static blob} as one length-prefixed
    string (unit name, static pid, import-interface list, the own stamp
    table with dehydrated definitions, the environment tree with stubs
    for external references), then the codeUnit (imports, exports,
    code), and a fixed-width CRC-64 trailer guarding against
    corruption.  Reading verifies the CRC {e before parsing anything}
    — a damaged file is a checked {!Buf.Corrupt}, never a wrong
    environment and never a partially-registered context — then checks
    the magic and registers the unit's own type constructors in the
    context ("rehydration", section 4).

    Because the static blob is length-prefixed, the {e static view} of
    a unit — all a dependent needs to compile against it, per the
    paper's statenv/codeUnit factoring — sits in a full bin as one
    contiguous, separately readable string. *)

type t = {
  uf_name : string;  (** the compilation unit's name (source path) *)
  uf_static_pid : Digestkit.Pid.t;  (** intrinsic pid of the interface *)
  uf_env : Statics.Types.env;  (** exported static environment *)
  uf_import_statics : (string * Digestkit.Pid.t) list;
      (** interface pids of the units this one was compiled against —
          the cutoff-recompilation record *)
  uf_name_statics : (Support.Symbol.t * Digestkit.Pid.t) list;
      (** per-binding interface pids of this unit's exports *)
  uf_import_name_statics : (Support.Symbol.t * Digestkit.Pid.t) list;
      (** per-binding interface pids of the module names this unit
          actually referenced — the selective-recompilation record *)
  uf_codeunit : Link.Codeunit.t;
}

(** The format magic ("SMLSEP.BIN.…").  Changes whenever the layout
    does, so it doubles as the compiler-version component of
    content-addressed cache keys. *)
val magic : string

(** [write ctx unit] — serialize to bytes. *)
val write : Statics.Context.t -> t -> string

(** A unit as read from its bytes, with the definitions of the type
    constructors it owns: what a read registers in a context.  Nothing
    in it refers to a context, so one [loaded] can be attached to many
    sessions. *)
type loaded = {
  l_unit : t;
  l_entries : (Statics.Stamp.t * Statics.Types.tycon_info) list;
}

(** [decode bytes] — parse and verify magic + CRC; registers nothing.
    Every call is one real read ([pickle.rehydrations]).
    Raises {!Buf.Corrupt} on damage. *)
val decode : string -> loaded

(** [attach ctx loaded] — register the unit's own stamps in [ctx]
    ("rehydration" proper, section 4) and return the unit. *)
val attach : Statics.Context.t -> loaded -> t

(** [read ctx bytes] — [attach ctx (decode bytes)].
    Raises {!Buf.Corrupt} on damage, before registering anything. *)
val read : Statics.Context.t -> string -> t

(** [size_of ctx unit] — serialized size in bytes (for benches). *)
val size_of : Statics.Context.t -> t -> int
