// Command extra is a binary the list does not name: flagged.
package main

func main() {}
