(* A set of keys with insert/remove/contains (Weihl's abstract data type
   commutativity, §2).

   Insertions of different keys commute; same-key inserts commute too
   (both orders leave the same state and return unit), while
   insert/remove and membership tests on the same key conflict.

   Every element carries an insertion count.  Set semantics are
   unaffected (membership = count >= 1), but the count is what makes
   same-key inserts have COMMUTING COMPENSATIONS: undoing one of two
   concurrent inserts of the same element decrements the count instead
   of removing the element outright, so the other transaction's insert
   survives.  This is the standard condition for open nesting — an
   operation may only be declared commuting if its compensation commutes
   too.

   State: sorted [[(elem, count); …]], counts positive. *)

open Ooser_core

let empty = Value.list []

let pairs = function
  | Value.List ps -> ps
  | _ -> invalid_arg "Kv_set: malformed state"

let count st v =
  List.fold_left
    (fun n p ->
      match p with
      | Value.Pair (x, Value.Int c) when Value.equal x v -> c
      | _ -> n)
    0 (pairs st)

let set_count st v n =
  let rest =
    List.filter
      (function Value.Pair (x, _) -> not (Value.equal x v) | _ -> true)
      (pairs st)
  in
  Value.list
    (List.sort Value.compare
       (if n > 0 then Value.pair v (Value.int n) :: rest else rest))

let add_count st v n = set_count st v (count st v + n)
let mem st v = count st v > 0
let cardinal st = List.length (pairs st)
let of_counts cs = List.fold_left (fun st (v, n) -> add_count st v n) empty cs

(* Same-key method compatibility.  Two same-key removes do NOT commute:
   [remove] observably returns the dropped insertion count, so whichever
   runs first returns it and the other returns 0.  [cardinal] reads the
   whole membership, so it commutes with the pure observers and
   conflicts with every update. *)
let same_key_commutes m m' =
  match (m, m') with
  | "insert", "insert" | "contains", "contains" -> true
  | "cardinal", ("cardinal" | "contains") | "contains", "cardinal" -> true
  | _ -> false

let vocab = [ "insert"; "remove"; "contains"; "cardinal" ]

let spec =
  Commutativity.by_key ~key_of:Commutativity.first_arg
    (Commutativity.predicate ~stable:true ~name:"kv-set" ~vocab (fun a b ->
         same_key_commutes (Action.meth a) (Action.meth b)))

let a = Value.str "a"
let b = Value.str "b"
let keys = [ [ a ]; [ b ] ]
let elem_of args = Adt.one_arg args

let dropped_of = function
  | Value.Pair (_, Value.Int n) -> n
  | _ -> 0

let adt =
  {
    Adt.name = "kv-set";
    methods =
      [
        Adt.update "insert" Adt.Writes_key ~vectors:keys
          ~inverse:(fun _ args _ st -> add_count st (elem_of args) (-1))
          ~compensation:(fun args _ -> Some ("decrCount", args))
          (fun st args -> (add_count st (elem_of args) 1, Value.unit));
        Adt.update "remove" Adt.Writes_key ~vectors:keys
          ~inverse:(fun _ args r st -> add_count st (elem_of args) (dropped_of r))
          ~compensation:(fun args r ->
            match dropped_of r with
            | 0 -> None
            | n -> Some ("addCount", [ elem_of args; Value.int n ]))
          (fun st args ->
            let v = elem_of args in
            ( set_count st v 0,
              Value.pair (Value.str "dropped") (Value.int (count st v)) ));
        (* the compensation of one insert *)
        Adt.update "decrCount" Adt.Writes_key ~vectors:keys
          ~inverse:(fun pre args _ st ->
            let v = elem_of args in
            if count pre v > 0 then add_count st v 1 else st)
          (fun st args ->
            let v = elem_of args in
            (set_count st v (max 0 (count st v - 1)), Value.unit));
        (* the compensation of a remove: restore the dropped insertions *)
        Adt.update "addCount" Adt.Writes_key
          ~vectors:[ [ a; Value.int 1 ]; [ b; Value.int 2 ] ]
          ~inverse:(fun _ args _ st ->
            match args with
            | [ v; Value.Int n ] -> add_count st v (-n)
            | _ -> st)
          (fun st args ->
            match args with
            | [ v; Value.Int n ] -> (add_count st v n, Value.unit)
            | _ -> invalid_arg "addCount: element and count expected");
        Adt.read "contains" Adt.Reads_key ~vectors:keys (fun st args ->
            Value.bool (mem st (elem_of args)));
        Adt.read "cardinal" Adt.Reads_all (fun st _ -> Value.int (cardinal st));
      ];
    vocab;
    spec = (fun ~current:_ -> spec);
    observe = Fun.id;
    rebuild = (fun _ o -> o);
    states =
      [
        of_counts [];
        of_counts [ (a, 1) ];
        of_counts [ (a, 2) ];
        of_counts [ (a, 1); (b, 1) ];
        of_counts [ (a, 2); (b, 1) ];
      ];
    gen_state =
      QCheck.Gen.(
        flatten_l
          (List.map
             (fun e -> int_range 0 3 >|= fun n -> (e, n))
             [ a; b; Value.str "c" ])
        >|= of_counts);
  }
