package rmi

// PaperRTree exposes the Figure 2 argument graph (root and its four
// aliases) to the rmi_test package.
var PaperRTree = paperRTree
