(* Validates a JSON-lines trace file against the schema documented in
   lib/obs/export.mli (the two must stay in sync).  Used by the CLI test
   suite and the CI trace job:

     validate_trace.exe FILE

   exits 0 and prints a line-count summary when every line conforms,
   exits 1 with the first offending line otherwise.  The parser below is a
   deliberately small hand-written JSON reader (objects, strings, numbers,
   booleans, null): the repo carries no JSON dependency. *)

exception Bad of string

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some c
                  when (c >= '0' && c <= '9')
                       || (c >= 'a' && c <= 'f')
                       || (c >= 'A' && c <= 'F') ->
                    Buffer.add_char buf c;
                    advance ()
                | _ -> fail "bad \\u escape"
              done
          | Some c ->
              Buffer.add_char buf c;
              advance ()
          | None -> fail "unterminated escape");
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_ ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | _ -> fail "unexpected character"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let k = string_ () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ((k, v) :: acc)
        | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let rec elements acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elements (v :: acc)
        | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elements []
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---- schema checks ---- *)

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" k))

let str fields k =
  match field fields k with
  | Str s -> s
  | _ -> raise (Bad (Printf.sprintf "field %S must be a string" k))

let num fields k =
  match field fields k with
  | Num f -> f
  | _ -> raise (Bad (Printf.sprintf "field %S must be a number" k))

let int_ fields k =
  let f = num fields k in
  if Float.is_integer f then int_of_float f
  else raise (Bad (Printf.sprintf "field %S must be an integer" k))

let nonneg_int fields k =
  let i = int_ fields k in
  if i < 0 then raise (Bad (Printf.sprintf "field %S must be >= 0" k));
  i

let string_attrs fields k =
  match field fields k with
  | Obj kvs ->
      List.iter
        (function
          | _, Str _ -> ()
          | a, _ ->
              raise (Bad (Printf.sprintf "attr %S must be a string" a)))
        kvs
  | _ -> raise (Bad (Printf.sprintf "field %S must be an object" k))

let op_kinds =
  [
    "index_scan"; "cq"; "union"; "dedup"; "hash_join"; "bnl_join"; "project";
    "result";
  ]

let check_line ~first line =
  let fields =
    match parse line with
    | Obj fields -> fields
    | _ -> raise (Bad "line is not a JSON object")
  in
  let ty = str fields "type" in
  if first && ty <> "meta" then raise (Bad "first line must be a meta line");
  (match ty with
  | "meta" ->
      if int_ fields "schema" <> 2 then raise (Bad "unknown schema version");
      ignore (str fields "generator");
      (* The parallelism width the trace was produced under; traces must
         stay schema-valid at every jobs count.  [effective_jobs] is the
         post-clamp width the pool actually ran at. *)
      if int_ fields "jobs" < 1 then raise (Bad "jobs below 1");
      if int_ fields "effective_jobs" < 1 then
        raise (Bad "effective_jobs below 1");
      (* Process snapshot at export time: GC counters are cumulative and
         non-negative; store_bytes is a size estimate, with -1 meaning "no
         store was measured". *)
      List.iter
        (fun k ->
          if int_ fields k < 0 then raise (Bad (k ^ " below 0")))
        [ "gc_minor_collections"; "gc_major_collections"; "gc_heap_words" ];
      if int_ fields "store_bytes" < -1 then raise (Bad "store_bytes below -1")
  | "query" -> ignore (str fields "name")
  | "span" ->
      ignore (str fields "name");
      ignore (num fields "start_us");
      if num fields "dur_us" < 0.0 then raise (Bad "negative span duration");
      ignore (nonneg_int fields "depth");
      string_attrs fields "attrs"
  | "estimate" ->
      ignore (str fields "label");
      ignore (num fields "est");
      ignore (num fields "actual");
      if num fields "q_error" < 1.0 then raise (Bad "q_error below 1")
  | "op" ->
      ignore (str fields "path");
      let kind = str fields "kind" in
      if not (List.mem kind op_kinds) then
        raise (Bad (Printf.sprintf "unknown op kind %S" kind));
      ignore (str fields "label");
      List.iter
        (fun k -> ignore (nonneg_int fields k))
        [
          "rows_in"; "rows_out"; "index_probes"; "hash_inserts";
          "hash_collisions"; "work_units";
        ];
      ignore (num fields "est_rows")
  | "counter" ->
      ignore (str fields "name");
      ignore (nonneg_int fields "value")
  | other -> raise (Bad (Printf.sprintf "unknown line type %S" other)));
  ty

let () =
  let file =
    match Sys.argv with
    | [| _; f |] -> f
    | _ ->
        prerr_endline "usage: validate_trace FILE";
        exit 2
  in
  let ic = open_in file in
  let counts = Hashtbl.create 8 in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         let ty = check_line ~first:(!lineno = 1) line in
         Hashtbl.replace counts ty
           (1 + Option.value ~default:0 (Hashtbl.find_opt counts ty))
       end
     done
   with
  | End_of_file -> close_in ic
  | Bad msg ->
      Printf.eprintf "%s:%d: %s\n" file !lineno msg;
      exit 1);
  if !lineno = 0 then begin
    Printf.eprintf "%s: empty trace\n" file;
    exit 1
  end;
  let summary =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
    |> String.concat " "
  in
  Printf.printf "OK: %d lines (%s)\n" !lineno summary
