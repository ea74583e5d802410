(** Executable small-scope semantics for the shipped ADTs.

    Spec inference (DESIGN §16) needs ground truth to compare a
    commutativity specification against.  A {!model} is the ADT's one
    definition ({!Ooser_adts.Adt.t}): its canonical state encoding as a
    {!Ooser_core.Value.t} (so witnesses print, serialize and replay),
    enumerated small-to-large states (the first failing state is a
    minimal witness) plus a QCheck random-state generator, argument
    vectors and per-method footprints.  An {!instance} runs the ADT's
    own transitions and undoes a call with the ADT's own inverse — the
    exact code of the engine's abort path, not a mirror of it.

    The oracle {!commute_at} decides whether two concrete calls commute
    at a state in the full open-nesting sense: both execution orders
    yield identical results and identical canonical states ({e forward}
    commutativity), {e and} undoing either call after the other ran —
    in both orders — leaves exactly the state the surviving call alone
    produces ({e abort safety}).  A call that errors in either order
    conflicts conservatively.  Abort safety is what justifies
    hand-written conflict cells that look conservative under forward
    commutativity alone: the directory's same-key [bind]/[bind] pair
    forward-commutes on equal arguments, but the captured-old-binding
    undo of one order resurrects the wrong binding, so the hand conflict
    is right. *)

open Ooser_core

(** Result of executing or undoing one call: a returned value, or a
    semantic error (bounds violation, bad argument). *)
type outcome = Ret of Value.t | Err of string

type call = {
  result : outcome;
  undo : unit -> outcome;
      (** Apply the ADT's inverse, exactly like the engine's abort path.
          Undoing an [Err] result is a successful no-op. *)
}

(** One live ADT value at a specific abstract state. *)
type instance = {
  hand : Commutativity.spec;
      (** The shipped spec reading this instance's state — for
          state-dependent specs (escrow, queue) the family member at
          that state. *)
  exec : string -> Value.t list -> call;
      (** Execute a method now; mutates the instance. *)
  observe : unit -> Value.t;  (** Canonical abstract state. *)
}

type model = Ooser_adts.Adt.t

val instantiate : model -> Value.t -> instance

val all : model list
(** Escrow counter, counted kv set, FIFO queue, directory, register and
    roster. *)

val for_spec : Commutativity.spec -> model option
(** The model auditing this registered spec, matched by spec name. *)

val footprint : model -> string -> Ooser_adts.Adt.footprint option

val vectors : model -> string -> Value.t list list
(** Argument vectors for a method ([[[]]] for unknown methods, so
    argument-less probing still works). *)

val commute_at :
  model -> Value.t -> string * Value.t list -> string * Value.t list -> bool
(** [commute_at m state (meth, args) (meth', args')] — the ground-truth
    oracle: forward commutativity plus all four abort-safety scenarios
    at [state].  Conservative: any error outcome, unequal result, state
    divergence or failing undo means [false]. *)

val forward_at :
  model -> Value.t -> string * Value.t list -> string * Value.t list -> bool
(** Forward commutativity alone (both orders, equal results and states,
    no abort scenarios) — used to label a refutation as
    order-distinguishable versus abort-unsafe. *)
