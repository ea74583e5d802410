(* Read/write register: [write v] overwrites, [read] returns the state.
   The spec is the classic stable read/write matrix.

   State: the stored value. *)

open Ooser_core

let vocab = [ "read"; "write" ]

let spec =
  Commutativity.rw_named ~name:"register-occ" ~reads:[ "read" ]
    ~writes:[ "write" ]

let adt =
  {
    Adt.name = "register";
    methods =
      [
        Adt.read "read" Adt.Reads_all (fun st _ -> st);
        Adt.update "write" Adt.Writes_all
          ~vectors:[ [ Value.int 1 ]; [ Value.int 2 ] ]
          ~inverse:(fun pre _ _ _ -> pre)
          (fun _ args ->
            match args with
            | v :: _ -> (v, Value.unit)
            | [] -> invalid_arg "write: value expected");
      ];
    vocab;
    spec = (fun ~current:_ -> spec);
    observe = Fun.id;
    rebuild = (fun _ o -> o);
    states = List.map Value.int [ 0; 1; 2 ];
    gen_state = QCheck.Gen.(int_range 0 3 >|= Value.int);
  }
