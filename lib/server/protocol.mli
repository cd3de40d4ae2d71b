(** The `rdfqa serve` line protocol.

    One request is one line; one response is a status line, zero or more
    payload lines, and a lone [.] terminator — SMTP-style, so a shell
    one-liner over [nc] works as a client.  Requests:

    {v
    QUERY <sparql>            answer under the server's default strategy
    QUERY/<strategy> <sparql> override the strategy for this request
                              (saturation | ucq | scq | ecov | gcov)
    INSERT <path>             load <path> (server-side, .nt/.ttl) and
                              insert its triples
    DELETE <path>             delete <path>'s triples
    STATS                     one k=v line per server/store statistic
    PROM                      Prometheus text exposition of the registry
    PING                      liveness probe
    QUIT                      close the connection
    v}

    Responses: [OK k=v ...] or [ERR <message>], then payload lines, then
    [.].  Query payload rows are tab-separated {!escape}d terms in the
    exact order the single-shot CLI prints them.  Payload lines are
    dot-stuffed: a line starting with [.] gains a second leading dot on
    the wire ({!stuff}/{!unstuff}). *)

type request =
  | Query of { strategy : string option; text : string }
  | Insert of string
  | Delete of string
  | Stats
  | Prom
  | Ping
  | Quit

val parse_request : string -> (request, string) result
(** Parses one request line.  Keywords are case-sensitive (uppercase);
    [Error] carries a human-readable reason suitable for an [ERR]
    response. *)

val request_to_line : request -> string
(** Renders a request back to its wire line (clients, tests). *)

val escape : string -> string
(** Escapes backslash, tab, newline and carriage return ([\\], [\t],
    [\n], [\r]) so any term fits one tab-separated field.  Identity on
    typical RDF terms. *)

val unescape : string -> string
(** Inverse of {!escape}; unknown escapes pass through undisturbed. *)

val encode_row : string list -> string
(** One answer row as a payload line: {!escape}d fields joined by tabs. *)

val decode_row : string -> string list
(** Inverse of {!encode_row}. *)

val terminator : string
(** The response-ending line, ["."] . *)

val needs_stuffing : string -> bool
(** Whether a payload line gains a leading dot on the wire: it starts
    with [.]. *)

val stuff : string -> string
(** Dot-stuffs a payload line for the wire. *)

val unstuff : string -> string
(** Removes one level of dot-stuffing. *)

(** {2 Streaming writers}

    The same bytes written straight to a channel, with no intermediate
    string per response. *)

val output_line : out_channel -> string -> unit
(** [output_line oc l] writes [stuff l] and a newline. *)

val output_row : out_channel -> int -> (int -> string) -> unit
(** [output_row oc width field] writes one answer row whose fields are
    already {!escape}d: byte for byte [stuff (encode_row fs)] and a
    newline, where [field k = escape (List.nth fs k)] for [k < width].
    The row is rendered into a buffer and written with a single channel
    call, so the channel's lock is taken once per row.  Apply [output_row
    oc] once per response to reuse one buffer across its rows. *)

val output_terminator : out_channel -> unit
(** Writes the {!terminator} line. *)
