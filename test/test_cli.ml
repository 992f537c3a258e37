(* CLI surface: `--help=plain` must render for the top level and for
   every subcommand. Cmdliner parses doc markup lazily, so a malformed
   doc string only shows up when its page is rendered — as a
   "cmdliner error" on stderr, with exit status 0. *)

let cli =
  (* `dune runtest` runs from _build/default/test; `dune exec` from the
     repository root — same dodge as the golden tests *)
  List.find Sys.file_exists
    [ "../bin/witcher_cli.exe"; "_build/default/bin/witcher_cli.exe" ]

(* Exit status and combined stdout + stderr of [cli args]. *)
let run_cli args =
  let out, inp, err =
    Unix.open_process_args_full cli (Array.of_list (cli :: args))
      (Array.append [| "PAGER=cat"; "MANPAGER=cat"; "TERM=dumb" |]
         (Unix.environment ()))
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  let status = Unix.close_process_full (out, inp, err) in
  (status, stdout ^ stderr)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Subcommand names listed in the top-level page's COMMANDS section:
   each entry starts with the name at a 7-space indent. *)
let subcommands page =
  let rec section acc in_cmds = function
    | [] -> List.rev acc
    | line :: rest ->
      if line = "COMMANDS" then section acc true rest
      else if not in_cmds then section acc false rest
      else if line <> "" && line.[0] <> ' ' then List.rev acc
      else if String.length line > 7 && String.sub line 0 7 = "       "
              && line.[7] <> ' ' then
        let name = List.hd (String.split_on_char ' ' (String.trim line)) in
        section (name :: acc) true rest
      else section acc true rest
  in
  section [] false (String.split_on_char '\n' page)

let check_help args =
  let label = String.concat " " ("witcher" :: args) in
  let status, output = run_cli args in
  (match status with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "%s exited abnormally:\n%s" label output);
  if contains output "cmdliner error" then
    Alcotest.failf "%s reports a doc error:\n%s" label output;
  output

let test_help_renders () =
  let top = check_help [ "--help=plain" ] in
  let subs = subcommands top in
  Alcotest.(check (list string)) "subcommands listed"
    [ "campaign"; "explain"; "list"; "perf"; "run"; "trace" ] subs;
  List.iter (fun sub -> ignore (check_help [ sub; "--help=plain" ])) subs

let suite =
  [ Alcotest.test_case "help renders for every subcommand" `Quick
      test_help_renders ]
