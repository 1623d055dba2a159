package spec

// Parse parses a complete CAvA specification.
//
// Grammar (see package doc and the paper's Figure 4):
//
//	spec       = { decl } .
//	decl       = apiDecl | typeDecl | handleDecl | constDecl | funcDecl .
//	apiDecl    = "api" STRING [ "version" STRING ] ";" .
//	typeDecl   = "type" IDENT "=" IDENT [ "{" { ("success"|"oom") "(" expr ")" ";" } "}" ] [";"] .
//	handleDecl = "handle" IDENT ( ";" | "{" { hAnn } "}" [";"] ) .
//	hAnn       = "type" "(" "*" IDENT ")" ";" | "invalid" "(" expr ")" ";"
//	           | ("stable"|"refcounted") ";" .
//	constDecl  = "const" IDENT "=" ["-"] INT ";" .
//	funcDecl   = typeRef IDENT "(" [ param { "," param } ] ")" ( ";" | body ) .
//	param      = ["const"] typeRef IDENT .
//	typeRef    = IDENT { "*" } .
//	body       = "{" { stmt } "}" .
//	stmt       = ("sync"|"async") ";"
//	           | "if" "(" IDENT ("=="|"!=") expr ")" stmt "else" stmt
//	           | "parameter" "(" IDENT ")" "{" { pAnn } "}"
//	           | "resource" "(" IDENT "," expr ")" ";"
//	           | "track" "(" IDENT [ "," IDENT [ "," IDENT ] ] ")" ";" .
//	pAnn       = ("in"|"out"|"inout"|"allocates"|"deallocates") ";"
//	           | "buffer" "(" expr ")" ";"
//	           | "element" [ "{" { pAnn } "}" ] ";"? .
//	expr       = term { ("+"|"-") term } .
//	term       = factor { ("*"|"/") factor } .
//	factor     = INT | IDENT | "sizeof" "(" IDENT ")" | "(" expr ")" .
func Parse(src string) (*API, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	api := NewAPI("")
	for p.tok.kind != tokEOF {
		if err := p.parseDecl(api); err != nil {
			return nil, err
		}
	}
	if err := Validate(api); err != nil {
		return nil, err
	}
	return api, nil
}

// ParseNoValidate parses without running semantic validation; used by the
// inference pass, which deliberately accepts incomplete annotations.
func ParseNoValidate(src string) (*API, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	api := NewAPI("")
	for p.tok.kind != tokEOF {
		if err := p.parseDecl(api); err != nil {
			return nil, err
		}
	}
	return api, nil
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, errf(p.tok.pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) expectIdent(word string) error {
	if p.tok.kind != tokIdent || p.tok.text != word {
		return errf(p.tok.pos, "expected %q, found %s", word, p.tok)
	}
	return p.advance()
}

func (p *parser) atIdent(word string) bool {
	return p.tok.kind == tokIdent && p.tok.text == word
}

func (p *parser) parseDecl(api *API) error {
	if p.tok.kind != tokIdent {
		return errf(p.tok.pos, "expected declaration, found %s", p.tok)
	}
	switch p.tok.text {
	case "api":
		return p.parseAPIDecl(api)
	case "type":
		return p.parseTypeDecl(api)
	case "handle":
		return p.parseHandleDecl(api)
	case "const":
		// Could be `const T* p` only inside parameter lists; at top level
		// `const` always begins a constant declaration.
		return p.parseConstDecl(api)
	default:
		return p.parseFuncDecl(api)
	}
}

func (p *parser) parseAPIDecl(api *API) error {
	if err := p.advance(); err != nil { // consume "api"
		return err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return err
	}
	api.Name = name.text
	if p.atIdent("version") {
		if err := p.advance(); err != nil {
			return err
		}
		v, err := p.expect(tokString)
		if err != nil {
			return err
		}
		api.Version = v.text
	}
	_, err = p.expect(tokSemi)
	return err
}

func (p *parser) parseTypeDecl(api *API) error {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume "type"
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return err
	}
	base, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	td := &TypeDecl{Name: name.text, Base: base.text, Pos: pos}
	if p.tok.kind == tokLBrace {
		err := p.parseAttrs(func(word string, pos Pos) (err error) {
			switch word {
			case "success":
				td.Success, err = p.parseParenExpr()
			case "oom":
				td.OOM, err = p.parseParenExpr()
			default:
				err = errf(pos, "unknown type annotation %q (want success/oom)", word)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if p.tok.kind == tokSemi {
		if err := p.advance(); err != nil {
			return err
		}
	}
	if _, dup := api.Types[td.Name]; dup {
		return errf(pos, "type %q redeclared", td.Name)
	}
	api.Types[td.Name] = td
	api.typeOrder = append(api.typeOrder, td.Name)
	return nil
}

func (p *parser) parseHandleDecl(api *API) error {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume "handle"
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	hd := &HandleDecl{Name: name.text, Pos: pos}
	if p.tok.kind == tokLBrace {
		err := p.parseAttrs(func(word string, pos Pos) (err error) {
			switch word {
			case "type":
				hd.GoType, err = p.parseGoType()
			case "invalid":
				hd.Invalid, err = p.parseParenExpr()
			case "stable":
				hd.Stable = true
			case "refcounted":
				hd.Refcounted = true
			default:
				err = errf(pos, "unknown handle annotation %q (want type/invalid/stable/refcounted)", word)
			}
			return err
		})
		if err != nil {
			return err
		}
	} else if p.tok.kind != tokSemi {
		return errf(p.tok.pos, "expected ';' or annotation body after handle %s, found %s", hd.Name, p.tok)
	}
	if p.tok.kind == tokSemi {
		if err := p.advance(); err != nil {
			return err
		}
	}
	if _, dup := api.Handles[hd.Name]; dup {
		return errf(pos, "handle %q redeclared", hd.Name)
	}
	api.Handles[hd.Name] = hd
	api.handleOrder = append(api.handleOrder, hd.Name)
	return nil
}

// parseAttrs parses a declaration's `{ word ...; word ...; }` body: item
// consumes what follows each word up to its semicolon.
func (p *parser) parseAttrs(item func(word string, pos Pos) error) error {
	if err := p.advance(); err != nil { // consume '{'
		return err
	}
	for p.tok.kind != tokRBrace {
		word, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if err := item(word.text, word.pos); err != nil {
			return err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return err
		}
	}
	return p.advance() // consume '}'
}

func (p *parser) parseParenExpr() (Expr, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	_, err = p.expect(tokRParen)
	return e, err
}

// parseGoType parses `(*T)`: the silo's Go type behind a handle.
func (p *parser) parseGoType() (string, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return "", err
	}
	if _, err := p.expect(tokStar); err != nil {
		return "", err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	_, err = p.expect(tokRParen)
	return "*" + name.text, err
}

func (p *parser) parseConstDecl(api *API) error {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume "const"
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return err
	}
	neg := false
	if p.tok.kind == tokMinus {
		neg = true
		if err := p.advance(); err != nil {
			return err
		}
	}
	val, err := p.expect(tokInt)
	if err != nil {
		return err
	}
	v := val.num
	if neg {
		v = -v
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if _, dup := api.Consts[name.text]; dup {
		return errf(pos, "const %q redeclared", name.text)
	}
	api.Consts[name.text] = &ConstDecl{Name: name.text, Value: v, Pos: pos}
	api.constOrder = append(api.constOrder, name.text)
	return nil
}

func (p *parser) parseTypeRef() (TypeRef, error) {
	var tr TypeRef
	if p.atIdent("const") {
		tr.Const = true
		if err := p.advance(); err != nil {
			return tr, err
		}
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return tr, err
	}
	tr.Name = name.text
	for p.tok.kind == tokStar {
		tr.Stars++
		if err := p.advance(); err != nil {
			return tr, err
		}
	}
	return tr, nil
}

func (p *parser) parseFuncDecl(api *API) error {
	pos := p.tok.pos
	ret, err := p.parseTypeRef()
	if err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	fn := &Func{Name: name.text, Ret: ret, Pos: pos}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	if p.tok.kind != tokRParen {
		// `void` alone means an empty parameter list, C-style.
		if p.atIdent("void") {
			save := p.tok
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokRParen {
				// It was a `void*` parameter after all; rewind is not
				// possible with a one-token lexer, so parse the remainder
				// of the parameter from here.
				tr := TypeRef{Name: save.text}
				for p.tok.kind == tokStar {
					tr.Stars++
					if err := p.advance(); err != nil {
						return err
					}
				}
				pn, err := p.expect(tokIdent)
				if err != nil {
					return err
				}
				fn.Params = append(fn.Params, &Param{Name: pn.text, Type: tr, Pos: save.pos})
				for p.tok.kind == tokComma {
					if err := p.advance(); err != nil {
						return err
					}
					prm, err := p.parseParam()
					if err != nil {
						return err
					}
					fn.Params = append(fn.Params, prm)
				}
			}
		} else {
			for {
				prm, err := p.parseParam()
				if err != nil {
					return err
				}
				fn.Params = append(fn.Params, prm)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return err
				}
			}
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	switch p.tok.kind {
	case tokSemi:
		if err := p.advance(); err != nil {
			return err
		}
	case tokLBrace:
		if err := p.parseFuncBody(fn); err != nil {
			return err
		}
	default:
		return errf(p.tok.pos, "expected ';' or annotation body after %s(...), found %s", fn.Name, p.tok)
	}
	for _, existing := range api.Funcs {
		if existing.Name == fn.Name {
			return errf(pos, "function %q redeclared", fn.Name)
		}
	}
	api.Funcs = append(api.Funcs, fn)
	return nil
}

func (p *parser) parseParam() (*Param, error) {
	pos := p.tok.pos
	tr, err := p.parseTypeRef()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	return &Param{Name: name.text, Type: tr, Pos: pos}, nil
}

func (p *parser) parseFuncBody(fn *Func) error {
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		if err := p.parseStmt(fn); err != nil {
			return err
		}
	}
	return p.advance() // consume '}'
}

func (p *parser) parseStmt(fn *Func) error {
	if p.tok.kind != tokIdent {
		return errf(p.tok.pos, "expected annotation, found %s", p.tok)
	}
	switch p.tok.text {
	case "sync":
		fn.Sync = SyncSpec{Mode: SyncAlways}
		if err := p.advance(); err != nil {
			return err
		}
		_, err := p.expect(tokSemi)
		return err
	case "async":
		fn.Sync = SyncSpec{Mode: AsyncAlways}
		if err := p.advance(); err != nil {
			return err
		}
		_, err := p.expect(tokSemi)
		return err
	case "if":
		return p.parseIfSync(fn)
	case "parameter":
		return p.parseParameterAnn(fn)
	case "resource":
		return p.parseResourceAnn(fn)
	case "track":
		return p.parseTrackAnn(fn)
	default:
		return errf(p.tok.pos, "unknown annotation %q", p.tok.text)
	}
}

// parseIfSync handles `if (param == CONST) sync; else async;` and the
// negated / swapped variants.
func (p *parser) parseIfSync(fn *Func) error {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume "if"
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	param, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	negate := false
	switch p.tok.kind {
	case tokEq:
	case tokNeq:
		negate = true
	default:
		return errf(p.tok.pos, "expected '==' or '!=', found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return err
	}
	value, err := p.parseExpr()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	thenSync, err := p.parseSyncWord()
	if err != nil {
		return err
	}
	if err := p.expectIdent("else"); err != nil {
		return err
	}
	elseSync, err := p.parseSyncWord()
	if err != nil {
		return err
	}
	if thenSync == elseSync {
		return errf(pos, "conditional synchrony with identical branches")
	}
	// Normalize so that the condition being true means sync.
	if !thenSync {
		negate = !negate
	}
	fn.Sync = SyncSpec{
		Mode:      SyncConditional,
		CondParam: param.text,
		CondValue: value,
		Negate:    negate,
	}
	return nil
}

func (p *parser) parseSyncWord() (bool, error) {
	var sync bool
	switch {
	case p.atIdent("sync"):
		sync = true
	case p.atIdent("async"):
		sync = false
	default:
		return false, errf(p.tok.pos, "expected 'sync' or 'async', found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return false, err
	}
	_, err := p.expect(tokSemi)
	return sync, err
}

func (p *parser) parseParameterAnn(fn *Func) error {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume "parameter"
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	prm := fn.Param(name.text)
	if prm == nil {
		return errf(pos, "parameter(%s): no such parameter on %s", name.text, fn.Name)
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		if err := p.parseParamAnnItem(prm); err != nil {
			return err
		}
	}
	return p.advance() // consume '}'
}

func (p *parser) parseParamAnnItem(prm *Param) error {
	if p.tok.kind != tokIdent {
		return errf(p.tok.pos, "expected parameter annotation, found %s", p.tok)
	}
	word := p.tok.text
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return err
	}
	switch word {
	case "in":
		prm.Dir = DirIn
	case "out":
		prm.Dir = DirOut
	case "inout":
		prm.Dir = DirInOut
	case "allocates":
		prm.Allocates = true
	case "deallocates":
		prm.Deallocates = true
	case "buffer":
		if _, err := p.expect(tokLParen); err != nil {
			return err
		}
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
		prm.IsBuffer = true
		prm.SizeExpr = e
	case "element":
		prm.IsElement = true
		if p.tok.kind == tokLBrace {
			if err := p.advance(); err != nil {
				return err
			}
			for p.tok.kind != tokRBrace {
				if err := p.parseParamAnnItem(prm); err != nil {
					return err
				}
			}
			if err := p.advance(); err != nil {
				return err
			}
			// `element { ... }` needs no trailing semicolon, but accept one.
			if p.tok.kind == tokSemi {
				return p.advance()
			}
			return nil
		}
	default:
		return errf(pos, "unknown parameter annotation %q", word)
	}
	_, err := p.expect(tokSemi)
	return err
}

func (p *parser) parseResourceAnn(fn *Func) error {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume "resource"
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	e, err := p.parseExpr()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	fn.Resources = append(fn.Resources, ResourceAnn{Resource: name.text, Amount: e, Pos: pos})
	return nil
}

func (p *parser) parseTrackAnn(fn *Func) error {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume "track"
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	kind, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	var k TrackKind
	switch kind.text {
	case "config":
		k = TrackConfig
	case "create":
		k = TrackCreate
	case "destroy":
		k = TrackDestroy
	case "modify":
		k = TrackModify
	default:
		return errf(pos, "unknown track kind %q (want config/create/destroy/modify)", kind.text)
	}
	ta := TrackAnn{Kind: k}
	if p.tok.kind == tokComma {
		if err := p.advance(); err != nil {
			return err
		}
		prm, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		ta.Param = prm.text
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
			key, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			ta.Key = key.text
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if fn.Track.Kind != TrackNone {
		return errf(pos, "function %s has multiple track annotations", fn.Name)
	}
	fn.Track = ta
	return nil
}

func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := byte('+')
		if p.tok.kind == tokMinus {
			op = '-'
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := byte('*')
		if p.tok.kind == tokSlash {
			op = '/'
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseFactor() (Expr, error) {
	switch p.tok.kind {
	case tokInt:
		v := p.tok.num
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &IntLit{Value: v}, nil
	case tokIdent:
		if p.tok.text == "sizeof" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			tn, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &Sizeof{TypeName: tn.text}, nil
		}
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Ref{Name: name}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, errf(p.tok.pos, "expected expression, found %s", p.tok)
	}
}
