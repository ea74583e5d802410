(* Directory: a name-to-value map (Weihl's directory type, §2).

   Keyed commutativity like the set, with the addition of a [list]
   operation that reads every name and therefore conflicts with all
   updates — the phantom problem at the abstract-data-type level, the
   analogue of the paper's readSeq on the encyclopedia.

   State: key-sorted [[(key, value); …]]. *)

open Ooser_core

let empty = Value.list []

let bindings = function
  | Value.List bs -> bs
  | _ -> invalid_arg "Directory: malformed state"

let lookup st k =
  List.find_map
    (function
      | Value.Pair (k', v) when Value.equal k k' -> Some v
      | _ -> None)
    (bindings st)

let unbind st k =
  Value.list
    (List.filter
       (function Value.Pair (k', _) -> not (Value.equal k k') | _ -> true)
       (bindings st))

let bind st k v =
  Value.list (List.sort Value.compare (Value.pair k v :: bindings (unbind st k)))

let names st =
  List.filter_map (function Value.Pair (k, _) -> Some k | _ -> None) (bindings st)

(* Put back the binding [k] had in [pre]; [otherwise] when it had none. *)
let restore pre k ~otherwise st =
  match lookup pre k with Some v -> bind st k v | None -> otherwise st k

let vocab = [ "bind"; "unbind"; "lookup"; "list" ]

let spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"directory-keyed" (fun a b ->
           match (Action.meth a, Action.meth b) with
           | "lookup", "lookup" -> true
           | _ -> false))
  in
  Commutativity.predicate ~stable:true ~name:"directory" ~vocab (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "list", ("bind" | "unbind") | ("bind" | "unbind"), "list" -> false
      | "list", "list" | "list", "lookup" | "lookup", "list" -> true
      | _ -> Commutativity.test keyed a b)

let a = Value.str "a"
let b = Value.str "b"
let key_of args = List.hd args

let adt =
  {
    Adt.name = "directory";
    methods =
      [
        Adt.update "bind" Adt.Writes_key
          ~vectors:[ [ a; Value.int 1 ]; [ a; Value.int 2 ]; [ b; Value.int 1 ] ]
          ~inverse:(fun pre args _ st ->
            restore pre (key_of args) ~otherwise:unbind st)
          (fun st args ->
            match args with
            | [ k; v ] -> (bind st k v, Value.unit)
            | _ -> invalid_arg "bind: expected key and value");
        Adt.update "unbind" Adt.Writes_key ~vectors:[ [ a ]; [ b ] ]
          ~inverse:(fun pre args _ st ->
            restore pre (key_of args) ~otherwise:(fun st _ -> st) st)
          (fun st args -> (unbind st (Adt.one_arg args), Value.unit));
        Adt.read "lookup" Adt.Reads_key ~vectors:[ [ a ]; [ b ] ] (fun st args ->
            match lookup st (Adt.one_arg args) with
            | Some v -> Value.pair (Value.str "some") v
            | None -> Value.pair (Value.str "none") Value.unit);
        Adt.read "list" Adt.Reads_all (fun st _ -> Value.list (names st));
      ];
    vocab;
    spec = (fun ~current:_ -> spec);
    observe = Fun.id;
    rebuild = (fun _ o -> o);
    states =
      List.map
        (List.fold_left (fun st (k, v) -> bind st k (Value.int v)) empty)
        [ []; [ (a, 1) ]; [ (a, 1); (b, 2) ]; [ (a, 2) ] ];
    gen_state =
      QCheck.Gen.(
        flatten_l
          (List.map
             (fun k -> int_range 0 3 >|= fun v -> (k, v))
             [ a; b; Value.str "c" ])
        >|= List.fold_left
              (fun st (k, v) -> if v = 0 then st else bind st k (Value.int v))
              empty);
  }
