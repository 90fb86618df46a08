//! The generated library federation and a model of it.
//!
//! Two component schemas, as in `testdata/qp/library.*`: `L1` holds
//! `book(title, year)` and `member(mssn, fines)`, `L2` holds
//! `publication(ptitle, pyear)` and `author(assn, royalties)`, with
//! `L1.book ≡ L2.publication` and `L1.member ∩ L2.author`. Book `i` has
//! title `b{i}` and year `1900 + i % 120`; even books live in `L1`, odd
//! ones in `L2`. Every even member is also an author, paired by SSN, so
//! the derived class `member_author` holds exactly the even members.
//!
//! The model answers every benchmark query from these rules alone, never
//! from the program; inserted books continue the numbering in `L1`.

use crate::check::{Cell, Row};
use federation::{Agent, Fsm};
use oo_model::{AttrType, InstanceStore, SchemaBuilder};

/// Years cycle with this period, so each year holds `books / 120` books.
pub const YEARS: usize = 120;

pub fn year_of(book: usize) -> i64 {
    1900 + (book % YEARS) as i64
}

/// One read the workloads send. The derived read joins the derived
/// intersection class with a member key, so the planner seeds demand
/// from the key and every member is its own cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The book with title `b{i}`.
    Title(usize),
    /// Books whose year lies in `lo..=hi`.
    Range(i64, i64),
    /// Whether member `i` is also an author (`<X: member_author>`).
    Derived(usize),
}

impl Query {
    pub fn text(&self) -> String {
        match *self {
            Query::Title(i) => format!("?- <X: book | title: T, year: Y>, T = \"b{i}\"."),
            Query::Range(lo, hi) => {
                format!("?- <X: book | title: T, year: Y>, Y >= {lo}, Y <= {hi}.")
            }
            Query::Derived(i) => {
                format!("?- <X: member_author>, <X: member | mssn: M>, M = \"ssn{i}\".")
            }
        }
    }

    /// The protocol line `fedoo serve` reads for this query.
    pub fn line(&self) -> String {
        format!(
            "{{\"op\":\"query\",\"tenant\":\"bench\",\"q\":\"{}\"}}",
            self.text().replace('"', "\\\"")
        )
    }

    pub fn is_derived(&self) -> bool {
        matches!(self, Query::Derived(_))
    }
}

/// The protocol line that inserts book `i` into component 0.
pub fn insert_line(i: usize) -> String {
    format!(
        "{{\"op\":\"mutate\",\"tenant\":\"bench\",\"component\":0,\"class\":\"book\",\
         \"set\":{{\"title\":\"b{i}\",\"year\":{}}}}}",
        year_of(i)
    )
}

/// The federation's contents: `books` initial books, `inserted` books
/// added since by `mutate`, and `members` members.
#[derive(Debug, Clone)]
pub struct Library {
    pub books: usize,
    pub members: usize,
    pub inserted: usize,
}

impl Library {
    pub fn new(books: usize, members: usize) -> Self {
        Library {
            books,
            members,
            inserted: 0,
        }
    }

    /// Books currently in the federation.
    pub fn extent(&self) -> usize {
        self.books + self.inserted
    }

    /// The object identity of book `i`. Stores number each class's
    /// objects from 1 in creation order; initial books alternate between
    /// the components and inserted ones follow in `L1`.
    pub fn book_oid(&self, i: usize) -> String {
        if i >= self.books {
            format!("@book.{}", self.books.div_ceil(2) + (i - self.books) + 1)
        } else if i.is_multiple_of(2) {
            format!("@book.{}", i / 2 + 1)
        } else {
            format!("@publication.{}", i / 2 + 1)
        }
    }

    fn book_row(&self, i: usize) -> Row {
        vec![
            Cell::Str(self.book_oid(i)),
            Cell::Str(format!("b{i}")),
            Cell::Int(year_of(i)),
        ]
    }

    /// Record one insert; returns the book's index.
    pub fn insert(&mut self) -> usize {
        self.inserted += 1;
        self.extent() - 1
    }

    /// The rows the program must answer `q` with.
    pub fn expected(&self, q: &Query) -> Vec<Row> {
        let in_year = |y: i64| {
            let first = (y - 1900) as usize;
            (first..self.extent())
                .step_by(YEARS)
                .map(|i| self.book_row(i))
        };
        match *q {
            Query::Title(i) if i < self.extent() => vec![self.book_row(i)],
            Query::Title(_) => Vec::new(),
            Query::Range(lo, hi) => (lo..=hi).flat_map(in_year).collect(),
            Query::Derived(i) if i.is_multiple_of(2) && i < self.members => vec![vec![
                Cell::Str(format!("@member.{}", i + 1)),
                Cell::Str(format!("ssn{i}")),
            ]],
            Query::Derived(_) => Vec::new(),
        }
    }

    /// Build the program's input: the two component agents, the
    /// assertions and the member/author pairing.
    pub fn fsm(&self) -> Result<Fsm, String> {
        let s1 = SchemaBuilder::new("L1")
            .class("book", |c| {
                c.attr("title", AttrType::Str).attr("year", AttrType::Int)
            })
            .class("member", |c| {
                c.attr("mssn", AttrType::Str).attr("fines", AttrType::Int)
            })
            .build()
            .map_err(|e| e.to_string())?;
        let s2 = SchemaBuilder::new("L2")
            .class("publication", |c| {
                c.attr("ptitle", AttrType::Str).attr("pyear", AttrType::Int)
            })
            .class("author", |c| {
                c.attr("assn", AttrType::Str)
                    .attr("royalties", AttrType::Int)
            })
            .build()
            .map_err(|e| e.to_string())?;
        let (mut st1, mut st2) = (InstanceStore::new(), InstanceStore::new());
        let mut pairs = Vec::new();
        for i in 0..self.books {
            let made = if i.is_multiple_of(2) {
                st1.create(&s1, "book", |o| {
                    o.with_attr("title", format!("b{i}"))
                        .with_attr("year", year_of(i))
                })
            } else {
                st2.create(&s2, "publication", |o| {
                    o.with_attr("ptitle", format!("b{i}"))
                        .with_attr("pyear", year_of(i))
                })
            };
            made.map_err(|e| e.to_string())?;
        }
        for i in 0..self.members {
            let m = st1
                .create(&s1, "member", |o| {
                    o.with_attr("mssn", format!("ssn{i}"))
                        .with_attr("fines", (i % 50) as i64)
                })
                .map_err(|e| e.to_string())?;
            if i.is_multiple_of(2) {
                let a = st2
                    .create(&s2, "author", |o| {
                        o.with_attr("assn", format!("ssn{i}"))
                            .with_attr("royalties", (i * 10) as i64)
                    })
                    .map_err(|e| e.to_string())?;
                pairs.push((m, a));
            }
        }
        let mut fsm = Fsm::new();
        fsm.register(Agent::object_oriented("a1", s1, st1), "L1")
            .map_err(|e| e.to_string())?;
        fsm.register(Agent::object_oriented("a2", s2, st2), "L2")
            .map_err(|e| e.to_string())?;
        fsm.add_assertions_text(
            "assert L1.book == L2.publication {\n\
                 attr L1.book.title == L2.publication.ptitle;\n\
                 attr L1.book.year == L2.publication.pyear;\n\
             }\n\
             assert L1.member & L2.author {\n\
                 attr L1.member.mssn == L2.author.assn;\n\
             }",
        )
        .map_err(|e| e.to_string())?;
        for (m, a) in pairs {
            fsm.meta.pairing.pair(m, a);
        }
        Ok(fsm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oids_follow_creation_order() {
        let mut lib = Library::new(5, 2);
        assert_eq!(lib.book_oid(0), "@book.1");
        assert_eq!(lib.book_oid(4), "@book.3");
        assert_eq!(lib.book_oid(1), "@publication.1");
        assert_eq!(lib.book_oid(3), "@publication.2");
        let i = lib.insert();
        assert_eq!((i, lib.book_oid(i)), (5, "@book.4".to_string()));
    }

    #[test]
    fn range_and_derived_rows() {
        let lib = Library::new(250, 4);
        // Books 1, 121, 241 in 1901; 0, 120, 240 in 1900.
        assert_eq!(lib.expected(&Query::Range(1900, 1901)).len(), 6);
        assert_eq!(lib.expected(&Query::Range(1901, 1901)).len(), 3);
        assert_eq!(lib.expected(&Query::Derived(2)).len(), 1);
        assert!(lib.expected(&Query::Derived(3)).is_empty());
    }
}
