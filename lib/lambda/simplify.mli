(** A conservative simplifier over the lambda IR.

    The match compiler and the record-based module translation produce
    noisy code (join-point thunks, selections from literal tuples,
    fields of literal records).  This pass cleans it up with
    semantics-preserving rewrites:

    - beta reduction: [(fn x => body) arg ⇒ let x = arg in body];
    - inlining of atomic bindings (variables, constants, primitives);
    - dead pure bindings eliminated;
    - projections from literal tuples/records reduced;
    - constant folding of integer arithmetic, comparisons and boolean
      primitives (division by a literal zero is left in place, it must
      raise [Div] at run time);
    - constructor tag/argument extraction on literal constructors;
    - [if] over a literal boolean.

    All binders produced by elaboration are globally unique, so
    substitution needs no renaming (checked by the translation
    invariants test).

    Use counts come from one occurrence census (Appel & Jim, "Shrinking
    Lambda Expressions in Linear Time"), taken when {!term_with_stats}
    starts, so no [let] or [fix] decision walks its binder's scope (a
    walk that is quadratic over nested bindings).  The census maps each
    variable to its number of occurrences in the current term, and
    every rewrite keeps it exact: deleting a subterm (an untaken [if]
    arm, a dead pure binding or [fix] function, a discarded tuple or
    record sibling, a dropped handler) subtracts the subterm's
    occurrences, and inlining an atom counts the atom once per replaced
    occurrence.  Precondition: binders are unique in the term, so a
    variable occurs only in the scope of its one binder and its count
    is its number of uses there — the count each [let] and [fix]
    decision needs.  The census is local to one call. *)

(** [term t] — simplify to a fixpoint (bounded number of passes). *)
val term : Lambda.t -> Lambda.t

type stats = { before_nodes : int; after_nodes : int; passes : int }

(** [term_with_stats t] *)
val term_with_stats : Lambda.t -> Lambda.t * stats
