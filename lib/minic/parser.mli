(** Recursive-descent parser for MiniC: [parse_string src] parses the
    tokens of [Lexer.tokenize src].

    @raise Errors.Error on syntax errors. *)
val parse_string : string -> Ast.program
