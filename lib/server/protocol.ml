type request =
  | Query of { strategy : string option; text : string }
  | Insert of string
  | Delete of string
  | Stats
  | Prom
  | Ping
  | Quit

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_request line =
  let line = String.trim line in
  let cmd, rest = split_command line in
  match cmd with
  | "PING" -> Ok Ping
  | "QUIT" -> Ok Quit
  | "STATS" -> Ok Stats
  | "PROM" -> Ok Prom
  | "INSERT" ->
      if rest = "" then Error "INSERT needs a file path" else Ok (Insert rest)
  | "DELETE" ->
      if rest = "" then Error "DELETE needs a file path" else Ok (Delete rest)
  | "QUERY" ->
      if rest = "" then Error "QUERY needs a SPARQL text"
      else Ok (Query { strategy = None; text = rest })
  | _ -> (
      match String.index_opt cmd '/' with
      | Some i when String.sub cmd 0 i = "QUERY" ->
          let s =
            String.lowercase_ascii
              (String.sub cmd (i + 1) (String.length cmd - i - 1))
          in
          if not (List.mem_assoc s Rqa.Answering.strategies) then
            Error ("unknown strategy: " ^ s)
          else if rest = "" then Error "QUERY needs a SPARQL text"
          else Ok (Query { strategy = Some s; text = rest })
      | _ ->
          if line = "" then Error "empty request"
          else Error ("unknown request: " ^ cmd))

let request_to_line = function
  | Query { strategy = None; text } -> "QUERY " ^ text
  | Query { strategy = Some s; text } -> "QUERY/" ^ s ^ " " ^ text
  | Insert p -> "INSERT " ^ p
  | Delete p -> "DELETE " ^ p
  | Stats -> "STATS"
  | Prom -> "PROM"
  | Ping -> "PING"
  | Quit -> "QUIT"

let escape s =
  let plain = ref true in
  String.iter
    (function '\\' | '\t' | '\n' | '\r' -> plain := false | _ -> ())
    s;
  if !plain then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '\\' -> Buffer.add_string b "\\\\"
        | '\t' -> Buffer.add_string b "\\t"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let unescape s =
  if not (String.contains s '\\') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] = '\\' && !i + 1 < n then begin
         (match s.[!i + 1] with
         | '\\' -> Buffer.add_char b '\\'
         | 't' -> Buffer.add_char b '\t'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | c ->
             Buffer.add_char b '\\';
             Buffer.add_char b c);
         i := !i + 2
       end
       else begin
         Buffer.add_char b s.[!i];
         incr i
       end)
    done;
    Buffer.contents b
  end

let encode_row fields = String.concat "\t" (List.map escape fields)
let decode_row line = List.map unescape (String.split_on_char '\t' line)
let terminator = "."
let needs_stuffing line = String.length line > 0 && line.[0] = '.'
let stuff line = if needs_stuffing line then "." ^ line else line

let unstuff line =
  if String.length line >= 2 && line.[0] = '.' && line.[1] = '.' then
    String.sub line 1 (String.length line - 1)
  else line

let output_line oc line =
  if needs_stuffing line then output_char oc '.';
  output_string oc line;
  output_char oc '\n'

(* A channel takes its lock on every output call, so a row is rendered into
   the writer's own buffer first and written with one call. *)
let output_row oc =
  let b = Buffer.create 256 in
  fun width field ->
    Buffer.clear b;
    for k = 0 to width - 1 do
      let f = field k in
      if k > 0 then Buffer.add_char b '\t'
      else if needs_stuffing f then Buffer.add_char b '.';
      Buffer.add_string b f
    done;
    Buffer.add_char b '\n';
    Buffer.output_buffer oc b

let terminator_line = terminator ^ "\n"
let output_terminator oc = output_string oc terminator_line
